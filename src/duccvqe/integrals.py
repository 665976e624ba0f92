"""One- and two-electron integral containers and FCIDUMP-style I/O.

Two-electron integrals are stored in Mulliken/chemists' order (ij|kl).
Only the four permutations (ij|kl) = (ji|lk) = (kl|ij) = (lk|ji) are
assumed; dressed integrals need not carry the full 8-fold real symmetry.
A file (Knowles and Handy, Comput. Phys. Commun. 54, 75 (1989)) is read
once into index and value arrays, by one np.loadtxt pass if its body is
plain 'i j k l value' lines and it is not small, else line by line,
checked on those, and scattered orbit member by member into dense tensors.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .fermion import DataError, check_finite, negligible

DUPLICATE_TOL = 1e-12
# Loading a file forms dense spin-orbital tensors of m^4 entries, and the
# downfold holds several more: measured with BLAS on 1 thread on a 2-vCPU
# VM, `ducc-vqe downfold --active 1,2,3` on a seeded 2-electron system
# peaked at 492-493 MB in 1.5-1.9 s for 56 spin orbitals (H2/cc-pVTZ size)
# and at 813 MB in 3.0 s for 64. The cap keeps one run within about 1 GB.
SPIN_ORBITAL_CAP = 64

FIXTURE_NAMES = ("h2_ducc_0.8", "h2_ducc_1.4008", "h2_ducc_4.0", "h2_ducc_10.0")

DATA_DIR_ENV = "DUCC_VQE_DATA_DIR"

# the index permutations onto the members of a one- or two-body orbit
ORBITS = {2: ((0, 1), (1, 0)),
          4: ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))}

# a body line 'i j k l value' as np.loadtxt reads it
_ROW = np.dtype([("idx", np.int64, (4,)), ("value", np.float64)])
# In the reads of a downfold_5orb pass (BLAS on 1 thread, 2-vCPU VM) the
# line loop took 0.07 ms plus 1.8 us a line and np.loadtxt 0.21 ms plus
# 0.2 us: a file of fewer bytes than about 96 written lines takes the loop
PLAIN_MIN_BYTES = 3072


class IntegralError(DataError):
    """Malformed integral file or inconsistent integral data."""


@np.errstate(over="ignore")
def _orbits(idx, values, n):
    """For 0-based (rows, k) indices into an n^k array and their values, in
    order: the flat index arrays of the rows' orbit members, the canonical
    (least) ones, the rows last in their orbit by canonical index, and the
    (row, earlier row) of the first value off the one before it in its
    orbit by more than DUPLICATE_TOL, or None. Only values of one orbit
    are subtracted; a difference past the float range is inf, a conflict."""
    place = n ** np.arange(idx.shape[1] - 1, -1, -1)
    members = [idx[:, list(p)] @ place for p in ORBITS[idx.shape[1]]]
    keys = np.minimum.reduce(members)
    order = np.argsort(keys, kind="stable")
    later, earlier = order[1:], order[:-1]
    same = keys[later] == keys[earlier]
    last = order[np.append(~same, True)[:len(order)]]
    later, earlier = later[same], earlier[same]
    bad = np.abs(values[later] - values[earlier]) > DUPLICATE_TOL
    hit = None
    if bad.any():
        first = np.argmin(later[bad])
        hit = later[bad][first], earlier[bad][first]
    return members, keys, last, hit


def _conflict(key, shape, old, value):
    """The error of two values of the orbit of canonical flat index key."""
    kind = "one-body" if len(shape) == 2 else "two-body"
    key = tuple(int(p) + 1 for p in np.unravel_index(key, shape))
    return IntegralError(f"conflicting duplicate {kind} entry {key}: "
                         f"{float(old)} vs {float(value)}")


@dataclass(eq=False)
class IntegralSet:
    """Spatial-orbital integrals in Hartree, dense and 0-based: h1[i, j],
    h2[i, j, k, l] = (ij|kl). ``set_h1``/``set_h2`` take 1-based indices and
    fill an orbit; ``given1``/``given2`` mark the canonical member of each
    orbit given a value, the entries ``save_fcidump`` writes. Sets compare
    by identity."""

    n_orbitals: int
    scalar_shift: float = 0.0

    def __post_init__(self):
        n = self.n_orbitals
        self.h1, self.h2 = np.zeros((n, n)), np.zeros((n,) * 4)
        self.given1 = np.zeros((n, n), dtype=bool)
        self.given2 = np.zeros((n,) * 4, dtype=bool)

    def _check_range(self, *indices):
        for p in indices:
            if not 1 <= p <= self.n_orbitals:
                raise IntegralError(
                    f"orbital index {p} outside 1..{self.n_orbitals}")

    def get_h1(self, i, j):
        self._check_range(i, j)
        return float(self.h1[i - 1, j - 1])

    def get_h2(self, i, j, k, l):
        self._check_range(i, j, k, l)
        return float(self.h2[i - 1, j - 1, k - 1, l - 1])

    def _set(self, x, given, idx, value):
        """The orbit of the 1-based idx in x = value; an earlier value of
        the orbit that differs is an error."""
        self._check_range(*idx)
        idx = [p - 1 for p in idx]
        members = [tuple(idx[k] for k in p) for p in ORBITS[len(idx)]]
        key = min(members)
        if given.item(key) and abs(x.item(key) - value) > DUPLICATE_TOL:
            raise _conflict(np.ravel_multi_index(key, x.shape), x.shape,
                            x.item(key), value)
        for member in members:
            x[member] = value
        given[key] = True

    def set_h1(self, i, j, value):
        self._set(self.h1, self.given1, (i, j), value)

    def set_h2(self, i, j, k, l, value):
        self._set(self.h2, self.given2, (i, j, k, l), value)

    def to_spin_orbital(self):
        """Expand to 2n interleaved spin orbitals (alpha even, beta odd)."""
        m = 2 * self.n_orbitals
        h1s = np.zeros((m, m))
        h1s[0::2, 0::2] = h1s[1::2, 1::2] = self.h1
        h2s = np.zeros((m, m, m, m))
        # (pq|rs) nonzero only for spin(p)=spin(q) and spin(r)=spin(s)
        for sp in (0, 1):
            for sr in (0, 1):
                h2s[sp::2, sp::2, sr::2, sr::2] = self.h2
        return SpinIntegralSet(m, h1s, h2s, self.scalar_shift)


@dataclass
class SpinIntegralSet:
    """Spin-orbital integrals; h2 keeps chemists' (pq|rs) order, 0-based."""

    n_spin_orbitals: int
    h1: np.ndarray
    h2: np.ndarray
    scalar_shift: float = 0.0

    def __post_init__(self):
        m = self.n_spin_orbitals
        if np.shape(self.h1) != (m,) * 2 or np.shape(self.h2) != (m,) * 4:
            raise IntegralError(f"h1 of shape {np.shape(self.h1)} and h2 of "
                                f"shape {np.shape(self.h2)} for {m} modes")

    @np.errstate(over="ignore", invalid="ignore")
    def antisymmetrized(self, index=...):
        """<pq||rs> = (pr|qs) - (ps|qr) in physicists' notation, laid out
        [p, q, r, s] and indexed by ``index`` as a NumPy array would be:
        all of it by default, or a block, a diagonal or single entries,
        read off two views of the chemists' h2 without forming the rest.

        An overflow leaves inf, for the operators built on it to report.
        """
        g = self.h2
        return g.transpose(0, 2, 1, 3)[index] - g.transpose(0, 2, 3, 1)[index]


def _parse_header(line):
    fields = {}
    for tok in line.lstrip("&").replace(",", " ").split():
        if "=" in tok:
            key, _, val = tok.partition("=")
            fields[key.upper()] = val.rstrip(",")
        else:
            fields.setdefault("TAG", tok)
    return fields


def data_lines(lines):
    """(line number from 1, text) of each line that keeps some text once a
    '#' comment and the blanks around it are cut off."""
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _read_plain(path):
    """(header fields, body) as ``_read_lines`` gives them, read by one
    np.loadtxt pass, of a file whose first data line is its header and
    every later line 'i j k l value' with a finite value; else None."""
    # np.loadtxt opens the name again, fetches a URL-like one and
    # decompresses by extension: only a regular file of a plain name
    name = os.path.abspath(os.fsdecode(path))
    if (not os.path.isfile(name) or os.path.getsize(name) < PLAIN_MIN_BYTES
            or name.endswith((".gz", ".bz2", ".xz", ".lzma"))):
        return None
    try:
        with open(path) as fh:
            head, line = next(data_lines(fh), (0, ""))
            text = fh.read()
        if (not line.startswith("&") or line == "&END" or not text
                or text.isspace()):        # np.loadtxt warns on no data
            return None
        rows = np.loadtxt(name, _ROW, comments=None, skiprows=head, ndmin=1)
    except ValueError:      # a token NumPy rejects, or undecodable text
        return None
    # np.loadtxt skips blank lines: a row for each line means there are none
    if (len(rows) != text.count("\n") + (not text.endswith("\n"))
            or not np.isfinite(rows["value"]).all()):
        return None
    idx = np.ascontiguousarray(rows["idx"])
    return _parse_header(line), (range(head + 1, head + 1 + len(rows)), idx,
                                 rows["value"], idx.reshape(-1))


def _read_lines(path):
    """Parse a file once: (header fields, (linenos, idx, values, flat)) of
    the body lines 'i j k l value', comments, blanks, '/' and '&END' left
    out; ``_read_plain``'s, or a line loop's, which alone raises. ``idx``
    is the (n, 4) index array, where the loop reads an integer of 2^62 or
    more as -1 if one is 2^63 or more; ``flat`` holds the integers read."""
    plain = _read_plain(path)
    if plain is not None:
        return plain
    header, linenos, flat, values = None, [], [], []
    with open(path) as fh:
        for lineno, line in data_lines(fh):
            if line in ("/", "&END"):
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
                flat.extend(map(int, parts[:4]))
                value = float(parts[4])
            except ValueError as exc:
                raise IntegralError(f"{path}:{lineno}: {exc}") from None
            if not math.isfinite(value):
                raise IntegralError(
                    f"{path}:{lineno}: non-finite value {parts[4]!r}")
            linenos.append(lineno)
            values.append(value)
    if header is None:
        raise IntegralError(f"{path}: missing &FCI header")
    try:
        idx = np.array(flat, dtype=np.int64)
    except OverflowError:
        idx = np.array([p if abs(p) < 1 << 62 else -1 for p in flat])
    return header, (linenos, idx.reshape(-1, 4), np.array(values), flat)


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


def _integrals(header, body, path):
    """The body as an IntegralSet, or for a UHF=.TRUE. header, whose NORB
    counts spin orbitals, as a SpinIntegralSet.

    NORB is checked against SPIN_ORBITAL_CAP before any tensor is formed;
    then comes the first line to have an index outside 1..NORB (any of an
    h2 line, i or j of an h1 line 'i j 0 0', none of the scalar line
    '0 0 0 0') or a value more than DUPLICATE_TOL from the one before it
    in its orbit. An orbit, and the scalar, take their last line's value.
    """
    n = _header_int(header, "NORB", path)
    spins = 1 if _is_uhf(header) else 2
    if n < 1:
        raise IntegralError(f"{path}: NORB={n} is not positive")
    if n * spins > SPIN_ORBITAL_CAP:
        raise IntegralError(f"{path}: NORB={n} gives {n * spins} spin "
                            f"orbitals, above the cap {SPIN_ORBITAL_CAP}")
    linenos, idx, values, flat = body
    scalar = ~idx.any(axis=1)
    width = np.where(scalar, 0, np.where(idx[:, 2:].any(axis=1), 4, 2))
    outside = ((idx < 1) | (idx > n)) & (np.arange(4) < width[:, None])
    bad = np.flatnonzero(outside.any(axis=1))
    stop = bad[0] if len(bad) else len(idx)
    errors, fills = [], []
    if len(bad):
        p = next(p for p in flat[4 * stop:4 * stop + width[stop]]
                 if not 1 <= p <= n)
        errors.append((stop, f"orbital index {p} outside 1..{n}"))
    for k in (2, 4):
        rows = np.flatnonzero(width[:stop] == k)
        members, keys, last, hit = _orbits(idx[rows, :k] - 1, values[rows], n)
        if hit is not None:
            at, before = rows[hit[0]], rows[hit[1]]
            errors.append((at, str(_conflict(keys[hit[0]], (n,) * k,
                                             values[before], values[at]))))
        fills.append(([m[last] for m in members], keys[last],
                      values[rows[last]]))
    if errors:
        at, message = min(errors)
        raise IntegralError(f"{path}:{linenos[at]}: {message}")
    ints = IntegralSet(n_orbitals=n)
    if scalar.any():
        ints.scalar_shift = float(values[np.flatnonzero(scalar)[-1]])
    for x, given, (members, keys, v) in zip(
            (ints.h1, ints.h2), (ints.given1, ints.given2), fills):
        for m in members:
            x.reshape(-1)[m] = v
        given.reshape(-1)[keys] = True
    if spins == 1:
        return SpinIntegralSet(n, ints.h1, ints.h2, ints.scalar_shift)
    return ints


def load_fcidump(path) -> IntegralSet:
    """Parse a spatial-orbital FCIDUMP-style file."""
    header, body = _read_lines(path)
    if _is_uhf(header):
        raise IntegralError(
            f"{path}: spin-resolved file; use load_spin_fcidump")
    return _integrals(header, body, path)


def load_spin_fcidump(path) -> SpinIntegralSet:
    """Parse a spin-resolved (UHF=.TRUE.) file; indices are spin orbitals."""
    header, body = _read_lines(path)
    if not _is_uhf(header):
        raise IntegralError(
            f"{path}: spatial-orbital file; use load_fcidump")
    return _integrals(header, body, path)


def read_fcidump(path):
    """Parse any FCIDUMP-style file once: (integrals, nelec, ms2).

    The integrals are a SpinIntegralSet for a UHF=.TRUE. file and an
    IntegralSet otherwise; NELEC and MS2 read 0 when the header lacks them.
    """
    header, body = _read_lines(path)
    return (_integrals(header, body, path),
            _header_int(header, "NELEC", path, 0),
            _header_int(header, "MS2", path, 0))


def _write(path, fields, h1, keys1, h2, keys2, scalar):
    """A file of the orbits whose canonical members sit at the ascending
    flat indices keys2 of h2, then keys1 of h1, then a non-zero scalar."""
    lines = [f"&FCI NORB={len(h1)} {fields}\n"]
    for x, keys, fmt in ((h2, keys2, "{} {} {} {} {:.16e}\n"),
                         (h1, keys1, "{} {} 0 0 {:.16e}\n")):
        idx = np.column_stack(np.unravel_index(keys, x.shape)) + 1
        lines += [fmt.format(*i, v)
                  for i, v in zip(idx.tolist(), x.flat[keys].tolist())]
    if scalar:
        lines.append(f"0 0 0 0 {scalar:.16e}\n")
    with open(path, "w") as fh:
        fh.writelines(lines)


def save_fcidump(ints: IntegralSet, path, nelec, ms2=0):
    _write(path, f"NELEC={nelec} MS2={ms2}", ints.h1,
           np.flatnonzero(ints.given1), ints.h2, np.flatnonzero(ints.given2),
           ints.scalar_shift)


def save_spin_fcidump(spin_ints: SpinIntegralSet, path, nelec, ms2=0):
    """Write a UHF=.TRUE. file of the integral orbits with an entry above
    PRUNE_THRESHOLD, each once, with the value of its canonical member.

    Before the file is opened: NonFiniteError when an integral or the
    scalar is inf or NaN, IntegralError when two members of an orbit
    differ by more than DUPLICATE_TOL, the first such pair in descending
    index order (that of a fill entry by entry, canonical member last).
    """
    check_finite(f"{path}: not written: an integral is inf or NaN",
                 spin_ints.h1, spin_ints.h2, spin_ints.scalar_shift)
    keys = {}
    for x in (spin_ints.h2, spin_ints.h1):
        kept = ~negligible(x)
        kept = np.logical_or.reduce([kept.transpose(p)
                                     for p in ORBITS[x.ndim]])
        flat = np.flatnonzero(kept)[::-1]
        _, canonical, last, hit = _orbits(
            np.column_stack(np.unravel_index(flat, x.shape)), x.flat[flat],
            len(x))
        if hit is not None:
            raise _conflict(canonical[hit[0]], x.shape, x.flat[flat[hit[1]]],
                            x.flat[flat[hit[0]]])
        keys[x.ndim] = canonical[last]
    _write(path, f"NELEC={nelec} MS2={ms2} UHF=.TRUE.", spin_ints.h1, keys[2],
           spin_ints.h2, keys[4], spin_ints.scalar_shift)


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
