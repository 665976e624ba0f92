"""One- and two-electron integral containers and FCIDUMP-style I/O.

Two-electron integrals are stored in Mulliken/chemists' order (ij|kl).
Only the four permutations (ij|kl) = (ji|lk) = (kl|ij) = (lk|ji) are
assumed; dressed integrals need not carry the full 8-fold real symmetry.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .fermion import PRUNE_THRESHOLD, NonFiniteError

DUPLICATE_TOL = 1e-12
# Loading a file forms dense spin-orbital tensors of m^4 entries, and the
# downfold holds several more: measured with BLAS on 1 thread on a 2-vCPU
# VM, `ducc-vqe downfold --active 1,2,3` on a seeded 2-electron system
# peaked at 545 MB in 2.1 s for 56 spin orbitals (H2/cc-pVTZ size) and at
# 864 MB in 3.6 s for 64. The cap keeps one run within about 1 GB.
SPIN_ORBITAL_CAP = 64

FIXTURE_NAMES = ("h2_ducc_0.8", "h2_ducc_1.4008", "h2_ducc_4.0", "h2_ducc_10.0")

DATA_DIR_ENV = "DUCC_VQE_DATA_DIR"


class IntegralError(Exception):
    """Malformed integral file or inconsistent integral data."""


def _set_once(table, key, value, kind):
    """table[key] = value; an earlier value that differs is an error."""
    old = table.get(key)
    if old is not None and abs(old - value) > DUPLICATE_TOL:
        raise IntegralError(
            f"conflicting duplicate {kind} entry {key}: {old} vs {value}")
    table[key] = value


def _canonical_h1(i, j):
    return (i, j) if i <= j else (j, i)


def _h2_orbit(i, j, k, l):
    return ((i, j, k, l), (j, i, l, k), (k, l, i, j), (l, k, j, i))


def _canonical_h2(i, j, k, l):
    return min(_h2_orbit(i, j, k, l))


@dataclass
class IntegralSet:
    """Spatial-orbital integrals in Hartree, 1-based indices.

    Entries enter through ``set_h1`` and ``set_h2``, which key them by the
    canonical member of their symmetry orbit.
    """

    n_orbitals: int
    h1: dict = field(default_factory=dict, init=False)
    h2: dict = field(default_factory=dict, init=False)
    scalar_shift: float = 0.0

    def _check_range(self, *indices):
        for p in indices:
            if not 1 <= p <= self.n_orbitals:
                raise IntegralError(
                    f"orbital index {p} outside 1..{self.n_orbitals}")

    def get_h1(self, i, j):
        self._check_range(i, j)
        return self.h1.get(_canonical_h1(i, j), 0.0)

    def get_h2(self, i, j, k, l):
        self._check_range(i, j, k, l)
        return self.h2.get(_canonical_h2(i, j, k, l), 0.0)

    def set_h1(self, i, j, value):
        self._check_range(i, j)
        _set_once(self.h1, _canonical_h1(i, j), value, "one-body")

    def set_h2(self, i, j, k, l, value):
        self._check_range(i, j, k, l)
        _set_once(self.h2, _canonical_h2(i, j, k, l), value, "two-body")

    def h1_matrix(self):
        n = self.n_orbitals
        m = np.zeros((n, n))
        for (i, j), v in self.h1.items():
            m[i - 1, j - 1] = v
            m[j - 1, i - 1] = v
        return m

    def h2_tensor(self):
        """Dense (ij|kl) tensor, 0-based."""
        n = self.n_orbitals
        t = np.zeros((n, n, n, n))
        for (i, j, k, l), v in self.h2.items():
            for (a, b, c, d) in _h2_orbit(i, j, k, l):
                t[a - 1, b - 1, c - 1, d - 1] = v
        return t

    def to_spin_orbital(self):
        """Expand to 2n interleaved spin orbitals (alpha even, beta odd)."""
        n = self.n_orbitals
        m = 2 * n
        h1s = np.zeros((m, m))
        h1 = self.h1_matrix()
        h1s[0::2, 0::2] = h1
        h1s[1::2, 1::2] = h1
        h2 = self.h2_tensor()
        h2s = np.zeros((m, m, m, m))
        # (pq|rs) nonzero only for spin(p)=spin(q) and spin(r)=spin(s)
        for sp in (0, 1):
            for sr in (0, 1):
                h2s[sp::2, sp::2, sr::2, sr::2] = h2
        return SpinIntegralSet(m, h1s, h2s, self.scalar_shift)


@dataclass
class SpinIntegralSet:
    """Spin-orbital integrals; h2 keeps chemists' (pq|rs) order, 0-based."""

    n_spin_orbitals: int
    h1: np.ndarray
    h2: np.ndarray
    scalar_shift: float = 0.0

    @np.errstate(over="ignore", invalid="ignore")
    def antisymmetrized(self):
        """<pq||rs> = (pr|qs) - (ps|qr) in physicists' notation.

        An overflow leaves inf, for the operators built on it to report.
        """
        g = self.h2
        return np.einsum("prqs->pqrs", g) - np.einsum("psqr->pqrs", g)


def _parse_header(line):
    fields = {}
    for tok in line.lstrip("&").replace(",", " ").split():
        if "=" in tok:
            key, _, val = tok.partition("=")
            fields[key.upper()] = val.rstrip(",")
        else:
            fields.setdefault("TAG", tok)
    return fields


def _read_lines(path):
    header = None
    body = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line or line in ("/", "&END"):
                continue
            if line.startswith("&"):
                if header is not None:
                    raise IntegralError(f"{path}:{lineno}: second header line")
                header = _parse_header(line)
                continue
            if header is None:
                raise IntegralError(f"{path}:{lineno}: data before &FCI header")
            parts = line.split()
            if len(parts) != 5:
                raise IntegralError(
                    f"{path}:{lineno}: expected 'i j k l value', got {line!r}")
            try:
                i, j, k, l = (int(p) for p in parts[:4])
                value = float(parts[4])
            except ValueError as exc:
                raise IntegralError(f"{path}:{lineno}: {exc}") from None
            if not math.isfinite(value):
                raise IntegralError(
                    f"{path}:{lineno}: non-finite value {parts[4]!r}")
            body.append((lineno, i, j, k, l, value))
    if header is None:
        raise IntegralError(f"{path}: missing &FCI header")
    return header, body


def _header_int(header, key, path, default=None):
    if key not in header and default is not None:
        return default
    try:
        return int(header[key])
    except KeyError:
        raise IntegralError(f"{path}: header lacks {key}") from None
    except ValueError:
        raise IntegralError(f"{path}: bad {key}={header[key]!r}") from None


def _is_uhf(header):
    return header.get("UHF", "").upper().strip(".") in ("TRUE", "T")


def _spatial(header, body, path, spin_per_orbital=2) -> IntegralSet:
    """The body as an IntegralSet; each of the NORB orbitals of the header
    stands for ``spin_per_orbital`` spin orbitals."""
    n = _header_int(header, "NORB", path)
    if n < 1:
        raise IntegralError(f"{path}: NORB={n} is not positive")
    if n * spin_per_orbital > SPIN_ORBITAL_CAP:
        raise IntegralError(
            f"{path}: NORB={n} gives {n * spin_per_orbital} spin orbitals, "
            f"above the cap {SPIN_ORBITAL_CAP}")
    ints = IntegralSet(n_orbitals=n)
    for lineno, i, j, k, l, value in body:
        try:
            if i == j == k == l == 0:
                ints.scalar_shift = value
            elif k == 0 and l == 0:
                ints.set_h1(i, j, value)
            else:
                ints.set_h2(i, j, k, l, value)
        except IntegralError as exc:
            raise IntegralError(f"{path}:{lineno}: {exc}") from None
    return ints


def load_fcidump(path) -> IntegralSet:
    """Parse a spatial-orbital FCIDUMP-style file."""
    header, body = _read_lines(path)
    if _is_uhf(header):
        raise IntegralError(
            f"{path}: spin-resolved file; use load_spin_fcidump")
    return _spatial(header, body, path)


def _write(ints: IntegralSet, path, fields):
    """The FCIDUMP body of ``ints`` under a header of NORB and ``fields``."""
    with open(path, "w") as fh:
        fh.write(f"&FCI NORB={ints.n_orbitals} {fields}\n")
        for (i, j, k, l), v in sorted(ints.h2.items()):
            fh.write(f"{i} {j} {k} {l} {v:.16e}\n")
        for (i, j), v in sorted(ints.h1.items()):
            fh.write(f"{i} {j} 0 0 {v:.16e}\n")
        if ints.scalar_shift:
            fh.write(f"0 0 0 0 {ints.scalar_shift:.16e}\n")


def save_fcidump(ints: IntegralSet, path, nelec, ms2=0):
    _write(ints, path, f"NELEC={nelec} MS2={ms2}")


def _spin(header, body, path) -> SpinIntegralSet:
    """The spatial parse, with NORB counting spin orbitals."""
    ints = _spatial(header, body, path, spin_per_orbital=1)
    return SpinIntegralSet(ints.n_orbitals, ints.h1_matrix(), ints.h2_tensor(),
                           ints.scalar_shift)


def load_spin_fcidump(path) -> SpinIntegralSet:
    """Parse a spin-resolved (UHF=.TRUE.) file; indices are spin orbitals."""
    header, body = _read_lines(path)
    if not _is_uhf(header):
        raise IntegralError(
            f"{path}: spatial-orbital file; use load_fcidump")
    return _spin(header, body, path)


def save_spin_fcidump(spin_ints: SpinIntegralSet, path, nelec, ms2=0):
    """Write a UHF=.TRUE. file of the integral orbits with an entry above
    PRUNE_THRESHOLD, each once, with the value of its canonical member.

    Before the file is opened: NonFiniteError when an integral or the
    scalar is inf or NaN, IntegralError when two members of an orbit
    differ by more than DUPLICATE_TOL.
    """
    if not (np.isfinite(spin_ints.h1).all() and np.isfinite(spin_ints.h2).all()
            and math.isfinite(spin_ints.scalar_shift)):
        raise NonFiniteError(
            f"{path}: not written: an integral is inf or NaN")
    ints = IntegralSet(spin_ints.n_spin_orbitals,
                       scalar_shift=spin_ints.scalar_shift)
    for x, orbit, put in ((spin_ints.h2, _h2_orbit(0, 1, 2, 3), ints.set_h2),
                          (spin_ints.h1, ((0, 1), (1, 0)), ints.set_h1)):
        kept = np.abs(x) > PRUNE_THRESHOLD
        kept = np.logical_or.reduce([kept.transpose(axes) for axes in orbit])
        # in reverse, so that an orbit's smallest index tuple, the canonical
        # member, is set last and its value is the one written
        for idx, v in reversed(list(zip(np.argwhere(kept).tolist(),
                                        x[kept].tolist()))):
            put(*(p + 1 for p in idx), v)
    _write(ints, path, f"NELEC={nelec} MS2={ms2} UHF=.TRUE.")


def read_fcidump(path):
    """Parse any FCIDUMP-style file once: (integrals, nelec, ms2).

    The integrals are a SpinIntegralSet for a UHF=.TRUE. file and an
    IntegralSet otherwise; NELEC and MS2 read 0 when the header lacks them.
    """
    header, body = _read_lines(path)
    build = _spin if _is_uhf(header) else _spatial
    return (build(header, body, path), _header_int(header, "NELEC", path, 0),
            _header_int(header, "MS2", path, 0))


def fixture_path(name):
    if name not in FIXTURE_NAMES:
        raise IntegralError(
            f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}")
    override = os.environ.get(DATA_DIR_ENV)
    if override:
        return os.path.join(override, f"{name}.fcidump")
    return str(resources.files("duccvqe").joinpath(f"data/{name}.fcidump"))


def builtin_fixture(name) -> IntegralSet:
    """Bundled 4-orbital DUCC-dressed H2 integral sets."""
    return load_fcidump(fixture_path(name))
