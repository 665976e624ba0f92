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
    """Spatial-orbital integrals in Hartree, 1-based indices."""

    n_orbitals: int
    h1: dict = field(default_factory=dict)
    h2: dict = field(default_factory=dict)
    scalar_shift: float = 0.0
    label: str = ""

    def __post_init__(self):
        for (i, j) in self.h1:
            self._check_range(i, j)
        for (i, j, k, l) in self.h2:
            self._check_range(i, j, k, l)
        self.h1 = {_canonical_h1(*t): v for t, v in self.h1.items()}
        self.h2 = {_canonical_h2(*t): v for t, v in self.h2.items()}

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
        return SpinIntegralSet(m, h1s, h2s, self.scalar_shift, self.label)


@dataclass
class SpinIntegralSet:
    """Spin-orbital integrals; h2 keeps chemists' (pq|rs) order, 0-based."""

    n_spin_orbitals: int
    h1: np.ndarray
    h2: np.ndarray
    scalar_shift: float = 0.0
    label: str = ""

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


def is_spin_resolved(path):
    """True when the file header carries a UHF=.TRUE.-style flag."""
    return _is_uhf(_read_lines(path)[0])


def _spatial(header, body, path) -> IntegralSet:
    n = _header_int(header, "NORB", path)
    if n < 1:
        raise IntegralError(f"{path}: NORB={n} is not positive")
    ints = IntegralSet(n_orbitals=n, label=str(path))
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


def save_fcidump(ints: IntegralSet, path, nelec=None, ms2=0):
    nelec = ints.n_orbitals * 2 if nelec is None else nelec
    with open(path, "w") as fh:
        fh.write(f"&FCI NORB={ints.n_orbitals} NELEC={nelec} MS2={ms2}\n")
        for (i, j, k, l), v in sorted(ints.h2.items()):
            fh.write(f"{i} {j} {k} {l} {v:.16e}\n")
        for (i, j), v in sorted(ints.h1.items()):
            fh.write(f"{i} {j} 0 0 {v:.16e}\n")
        if ints.scalar_shift:
            fh.write(f"0 0 0 0 {ints.scalar_shift:.16e}\n")


def _spin(header, body, path) -> SpinIntegralSet:
    """The spatial parse, with NORB counting spin orbitals."""
    ints = _spatial(header, body, path)
    return SpinIntegralSet(ints.n_orbitals, ints.h1_matrix(), ints.h2_tensor(),
                           ints.scalar_shift, str(path))


def load_spin_fcidump(path) -> SpinIntegralSet:
    """Parse a spin-resolved (UHF=.TRUE.) file; indices are spin orbitals."""
    header, body = _read_lines(path)
    if not _is_uhf(header):
        raise IntegralError(
            f"{path}: spatial-orbital file; use load_fcidump")
    return _spin(header, body, path)


def save_spin_fcidump(spin_ints: SpinIntegralSet, path, nelec, ms2=0):
    """Write a UHF=.TRUE. file of the integrals above PRUNE_THRESHOLD.

    NonFiniteError, before the file is opened, when an integral or the
    scalar is inf or NaN.
    """
    if not (np.isfinite(spin_ints.h1).all() and np.isfinite(spin_ints.h2).all()
            and math.isfinite(spin_ints.scalar_shift)):
        raise NonFiniteError(
            f"{path}: not written: an integral is inf or NaN")
    m = spin_ints.n_spin_orbitals
    with open(path, "w") as fh:
        fh.write(f"&FCI NORB={m} NELEC={nelec} MS2={ms2} UHF=.TRUE.\n")
        seen = set()
        it = np.argwhere(np.abs(spin_ints.h2) > PRUNE_THRESHOLD)
        for p, q, r, s in it:
            key = _canonical_h2(p + 1, q + 1, r + 1, s + 1)
            if key in seen:
                continue
            seen.add(key)
            fh.write("%d %d %d %d %.16e\n"
                     % (*key, spin_ints.h2[p, q, r, s]))
        for p in range(m):
            for q in range(p, m):
                if abs(spin_ints.h1[p, q]) > PRUNE_THRESHOLD:
                    fh.write(f"{p + 1} {q + 1} 0 0 {spin_ints.h1[p, q]:.16e}\n")
        if spin_ints.scalar_shift:
            fh.write(f"0 0 0 0 {spin_ints.scalar_shift:.16e}\n")


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
    ints = load_fcidump(fixture_path(name))
    ints.label = name
    return ints
