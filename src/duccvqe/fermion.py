"""Sparse second-quantized operator algebra over spin orbitals.

Operator strings are tuples of (mode, dagger) pairs with 0-based spin-orbital
modes, kept as written: nothing here reorders them. ``build_hamiltonian``
writes H in the canonical vacuum normal form, creation operators first, each
group by ascending mode; normal ordering itself is a test oracle.

Sector matrices are built on whole (N, Sz) sectors: H from the integrals
(``sector_hamiltonian``, checked by ``checked_sector_hamiltonian``, dense
below ``DENSE_SECTOR_LIMIT`` and CSR above) and the UCC excitations E as
signed index maps (``excitation_matrix``); H is read off per-spin string
tables on the grid of alpha by beta strings (Olsen et al., J. Chem. Phys.
89, 2185 (1988)). ``exact_ground_state`` solves either layout with one
NumPy Davidson solver, so SciPy is imported only where a CSR matrix is
made. H as operator strings
(``build_hamiltonian``) is the Jordan-Wigner input and the test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import combinations, compress
from math import comb

import numpy as np

PRUNE_THRESHOLD = 1e-12
# modes a uint64 determinant or Pauli mask holds
MAX_MODES = 64
# largest |H - H^+| entry accepted as rounding in a Hermiticity check
HERMITIAN_TOL = 1e-10
# sectors of fewer determinants are dense arrays, of more CSR, for both
# exact_ground_state and VqeProblem. Measured with BLAS on 1 thread on a
# 2-vCPU VM on seeded systems of 5-8 orbitals, seeds 0 and 1:
#   determinants  build (ms)            lowest pair (ms)      one v.Hv (us)
#                 dense / CSR           dense / CSR           dense / CSR
#   100           0.50-0.53 / 0.81-0.84 0.53-0.60 / 0.61-0.69 2.0-2.1 / 6.0
#   400           3.5-3.6 / 3.2-3.7     1.6 / 1.7-1.8         19-22 / 28-32
#   735           10-11 / 9.8-9.9       4.4-4.8 / 3.3-3.5     170-180 / 81-84
#   784           13-14 / 12-16         5.0-6.3 / 4.0-4.5     190-200 / 110-130
#   1225          24-33 / 18-20         11-12 / 6.0-9.1       470-560 / 160
# The build (checked_sector_hamiltonian) and the one solver on either
# layout stay within 2x of each other, so the limit follows the product
# alone, which crosses between 400 and 735 determinants from run to run;
# a VQE takes hundreds of products.
DENSE_SECTOR_LIMIT = 600
# exact_ground_state costs about 24 B and 0.12 us a non-zero of the sector
# matrix of H, on top of the integrals: measured with BLAS on 1 thread on
# a 2-vCPU VM on seeded systems, 14,400 determinants (10 orbitals, 6
# electrons, 610 non-zeros a row) took 1.0-1.1 s at 270-274 MB peak RSS
# over two seeds, 18,496 (17 orbitals, 4 electrons, 1171 a row) 2.8 s at
# 585 MB, and 23,409 (18 orbitals, 4 electrons, 1329 a row, the densest
# sector below the cap) 3.7 s at 814 MB. H and the one transposed copy of
# its Hermiticity check set the memory; exact zeros cost none, and the
# same-spin doubles table of a sector with every electron in one spin,
# about the size of H, is gone before that copy (20 orbitals, 5
# electrons, MS2 = 5: 15,504 determinants in 3.9 s at +442 MB). The cap
# keeps one run within about 0.9 GB and 5 s.
SECTOR_DIM_CAP = 25_000
# Davidson's method in exact_ground_state: the start block holds the unit
# vectors of the DAVIDSON_START lowest diagonal entries and one seeded random
# vector; each iteration adds the correction r / (theta - H_ii), with
# |theta - H_ii| floored at DAVIDSON_FLOOR, and the basis restarts from the
# DAVIDSON_START lowest Ritz vectors at DAVIDSON_MAX_BASIS columns. The pair
# is converged when ||H x - theta x|| <= DAVIDSON_TOL, or where H is large,
# DAVIDSON_ULPS ulps of its largest Ritz value: at a core energy of 1e5
# Hartree, where an ulp is 1.5e-11, rounding in H x alone left 2e-12 to
# 1.8e-10 on seeded sectors of 100-14,400 determinants.
DAVIDSON_START = 8
DAVIDSON_MAX_BASIS = 48
DAVIDSON_FLOOR = 1e-8
DAVIDSON_TOL = 1e-11
DAVIDSON_ULPS = 64
DAVIDSON_MAX_ITER = 200
# entries formed at once: H entries, in whole rows, by the sector builder
# of sector_hamiltonian, (string, amplitude) pairs by
# simulator.expectation, differences by the Hermiticity check of
# checked_sector_hamiltonian
CHUNK_EXCITATIONS = 1 << 18


class DataError(Exception):
    """Input data the pipeline cannot use; ``ducc-vqe`` exits 3 on it."""


class ConvergenceError(Exception):
    """An iterative solver ran out of iterations before its tolerance;
    ``ducc-vqe`` exits 4 on it."""


class SpaceError(DataError):
    """Inconsistent active-space partition."""


class SectorError(DataError):
    """Empty or oversized particle-number/Sz sector."""


class NonFiniteError(DataError):
    """A coefficient, amplitude or energy overflowed to inf or NaN."""


def check_finite(message, *values):
    """NonFiniteError(message) when an entry of a value is inf or NaN."""
    if not all(np.isfinite(x).all() for x in values):
        raise NonFiniteError(message)


def negligible(x):
    """|x| <= PRUNE_THRESHOLD, elementwise: the coefficients and integrals
    that are dropped. False for NaN, and for a modulus past the float range,
    which is inf (callers silence that overflow), so neither is dropped."""
    return np.abs(x) <= PRUNE_THRESHOLD


@dataclass(frozen=True)
class ActiveSpace:
    """Partition of 1-based spatial orbitals.

    All occupied orbitals are active; ``active_virtual`` selects the virtuals
    kept in the reduced space. The compact spin-orbital ordering places the
    occupied orbitals first, then the active virtuals, each interleaved
    alpha/beta.
    """

    occupied: tuple
    active_virtual: tuple
    frozen_external: tuple

    @classmethod
    def build(cls, n_orbitals, occupied, active_virtual=None):
        occupied = tuple(occupied)
        if active_virtual is None:
            active_virtual = tuple(p for p in range(1, n_orbitals + 1)
                                   if p not in occupied)
        active_virtual = tuple(active_virtual)
        if set(occupied) & set(active_virtual):
            raise SpaceError("occupied and active_virtual overlap")
        frozen = tuple(p for p in range(1, n_orbitals + 1)
                       if p not in occupied and p not in active_virtual)
        all_orbitals = sorted(occupied + active_virtual + frozen)
        if all_orbitals != list(range(1, n_orbitals + 1)):
            raise SpaceError(
                f"orbital lists do not partition 1..{n_orbitals}")
        return cls(occupied, active_virtual, frozen)

    def spin_orbitals(self, spatial_orbitals):
        """Global interleaved spin orbitals (0-based) for 1-based spatials."""
        out = []
        for p in spatial_orbitals:
            out.extend((2 * (p - 1), 2 * (p - 1) + 1))
        return out

    @property
    def occupied_spin(self):
        return self.spin_orbitals(self.occupied)

    @property
    def active_virtual_spin(self):
        return self.spin_orbitals(self.active_virtual)

    @property
    def active_spin(self):
        return self.occupied_spin + self.active_virtual_spin

    @property
    def n_active_spin(self):
        return 2 * (len(self.occupied) + len(self.active_virtual))

    def compact_index(self):
        """Map global active spin orbital -> compact 0..n_active_spin-1."""
        return {g: c for c, g in enumerate(self.active_spin)}


class TermSum:
    """Weighted sum kept as ``terms``, a dict from term to coefficient:
    sums, scalar multiples and pruning. Subclasses are dataclasses of a
    size field and ``terms``; results carry the size over."""

    @classmethod
    def zero(cls, size):
        return cls(size, {})

    def add_term(self, key, coeff):
        self.terms[key] = self.terms.get(key, 0.0) + coeff

    def __add__(self, other):
        out = replace(self, terms=dict(self.terms))
        for key, c in other.terms.items():
            out.add_term(key, c)
        return out

    def __sub__(self, other):
        return self + (other * -1.0)

    def __mul__(self, factor):
        if isinstance(factor, TermSum):
            return NotImplemented  # scalar factors only
        return replace(self, terms={key: c * factor
                                    for key, c in self.terms.items()})

    __rmul__ = __mul__

    @np.errstate(over="ignore")
    def prune(self):
        kept = ~negligible(np.array(list(self.terms.values())))
        self.terms = dict(compress(self.terms.items(), kept))
        return self

    def __len__(self):
        return len(self.terms)


@dataclass
class FermionOperator(TermSum):
    """Weighted sum of second-quantized operator strings."""

    n_modes: int
    terms: dict = field(default_factory=dict)

    @classmethod
    def from_term(cls, n_modes, ops, coeff=1.0):
        return cls(n_modes, {tuple(ops): coeff})

    def add_term(self, ops, coeff):
        super().add_term(tuple(ops), coeff)

    def dagger(self):
        out = FermionOperator.zero(self.n_modes)
        for ops, c in self.terms.items():
            rev = tuple((mode, 1 - dag) for mode, dag in reversed(ops))
            out.add_term(rev, np.conjugate(c))
        return out


def excitation_generator(key, n_modes) -> FermionOperator:
    """kappa = E - E^+ for one excitation key, (i, a) or (i, j, a, b).

    E is a_a^+ a_i for a single and a_a^+ a_b^+ a_j a_i for a double; the
    parameter of the key's slot multiplies this anti-Hermitian generator.
    """
    if len(key) == 2:
        i, a = key
        ops = ((a, 1), (i, 0))
    else:
        i, j, a, b = key
        ops = ((a, 1), (b, 1), (j, 0), (i, 0))
    e_op = FermionOperator.from_term(n_modes, ops)
    return e_op - e_op.dagger()


def build_hamiltonian(spin_ints) -> FermionOperator:
    """H in canonical vacuum normal form, one string per index set.

    H = sum h_pq a_p^+ a_q - sum_{p<q, r<s} <pq||rs> a_p^+ a_q^+ a_r a_s,
    which equals 1/2 sum (pq|rs) a_p^+ a_r^+ a_s a_q for integrals with
    (pq|rs) = (rs|pq).
    """
    m = spin_ints.n_spin_orbitals
    op = FermionOperator.zero(m)
    if spin_ints.scalar_shift:
        op.add_term((), spin_ints.scalar_shift)
    for p, q in np.argwhere(~negligible(spin_ints.h1)):
        op.add_term(((int(p), 1), (int(q), 0)), float(spin_ints.h1[p, q]))
    g = spin_ints.antisymmetrized()
    pair = np.triu(np.ones((m, m), dtype=bool), 1)
    kept = pair[:, :, None, None] & pair[None, None, :, :]
    kept[kept] = ~negligible(g[kept])
    for (p, q, r, s), c in zip(np.argwhere(kept).tolist(), g[kept].tolist()):
        op.terms[((p, 1), (q, 1), (r, 0), (s, 0))] = -c
    return op


def hf_determinant(n_electrons: int) -> int:
    """Lowest spin orbitals occupied, interleaved alpha/beta ordering."""
    return (1 << n_electrons) - 1


def _occupied(n_modes: int, ref: int):
    """The occupied modes of determinant ``ref``."""
    return [p for p in range(n_modes) if (ref >> p) & 1]


@np.errstate(over="ignore", invalid="ignore")
def fock_matrix(spin_ints, ref: int) -> np.ndarray:
    """f_pq = h_pq + sum_{i occ} <pi||qi> = h_pq + sum_i [(pq|ii) - (pi|iq)],
    read from the chemists' h2 over the occupied indices alone."""
    occ = _occupied(spin_ints.n_spin_orbitals, ref)
    h2 = spin_ints.h2
    return spin_ints.h1 + h2[:, :, occ, occ].sum(axis=2) \
        - h2[:, occ, occ, :].sum(axis=1)


@np.errstate(over="ignore", invalid="ignore")
def hf_energy(spin_ints, ref: int) -> float:
    """E_0 + sum_i h_ii + 1/2 sum_ij [(ii|jj) - (ij|ji)]."""
    occ = _occupied(spin_ints.n_spin_orbitals, ref)
    h2 = spin_ints.h2[np.ix_(occ, occ, occ, occ)]
    return float(spin_ints.scalar_shift + sum(spin_ints.h1[i, i] for i in occ)
                 + 0.5 * (np.einsum("iijj->", h2) - np.einsum("ijji->", h2)))


def sector_dimension(n_modes: int, n_electrons: int, ms2: int) -> int:
    """Number of determinants with given electron count and 2*Sz."""
    if (n_electrons + ms2) % 2:
        return 0
    n_alpha = (n_electrons + ms2) // 2
    n_beta = (n_electrons - ms2) // 2
    if n_alpha < 0 or n_beta < 0:
        return 0
    return comb((n_modes + 1) // 2, n_alpha) * comb(n_modes // 2, n_beta)


def sector_determinants(n_modes: int, n_electrons: int, ms2: int):
    """All determinants with given electron count and 2*Sz, ascending, as
    ``uint64``: each alpha string (even modes) OR-ed with each beta string.

    SectorError, before any is formed, when there are more than
    ``SECTOR_DIM_CAP`` or more modes than ``MAX_MODES``.
    """
    alpha, beta = _spin_strings(n_modes, n_electrons, ms2)
    return np.sort((alpha[:, None] | beta).ravel())


def _spin_strings(n_modes: int, n_electrons: int, ms2: int):
    """The sector's alpha and beta strings, each ascending, as ``uint64``;
    SectorError as ``sector_determinants``."""
    if n_modes > MAX_MODES:
        raise SectorError(f"{n_modes} modes do not fit a 64-bit determinant")
    dim = sector_dimension(n_modes, n_electrons, ms2)
    if dim > SECTOR_DIM_CAP:
        raise SectorError(
            f"sector dimension {dim} exceeds cap {SECTOR_DIM_CAP}")
    if not dim:
        return (np.zeros(0, dtype=np.uint64),) * 2
    return [np.array(sorted(sum(1 << p for p in occ) for occ in
                            combinations(range(spin, n_modes, 2), count)),
                     dtype=np.uint64)
            for spin, count in ((0, (n_electrons + ms2) // 2),
                                (1, (n_electrons - ms2) // 2))]


_ONE = np.uint64(1)


def _bits(modes):
    return _ONE << modes.astype(np.uint64)


def _string_sign(dets, *modes):
    """The sign of a string of ladder operators on these modes, applied
    right to left, each past the occupied modes below its own, for
    determinants on which every operator acts."""
    parity = 0
    for mode in reversed(modes):
        bit = _bits(mode)
        parity = parity ^ np.bitwise_count(dets & (bit - _ONE)) & 1
        dets = dets ^ bit
    return 1.0 - 2.0 * parity


def _kept(x):
    """``x`` with the entries ``build_hamiltonian`` prunes set to zero."""
    return np.where(negligible(x), 0.0, x)


def _connected(dets, rows, *modes):
    """Positions in the sorted ``dets`` of ``rows`` with ``modes``
    flipped, -1 where absent."""
    new = rows
    for mode in modes:
        new = new ^ _bits(mode)
    pos = np.searchsorted(dets, new)
    pos[pos == len(dets)] = 0
    return np.where(dets[pos] == new, pos, -1)


def _string_tables(g, strings, modes, bit, stride):
    """Each of one spin's ascending ``strings`` over ``modes``: its singles
    a -> i as grid steps to the new string and a * m + i; the places among
    them of the a -> i and b -> j of each double a < b -> i < j, the same
    for every string; and its doubles as grid steps and <ab||ij>
    sign((i - b)(a - j)), formed for about ``CHUNK_EXCITATIONS`` at once.
    A grid step is a string step times ``stride``; ``bit`` holds 1 << p
    for the m modes."""
    n, m, count = len(strings), len(bit), int(strings[0]).bit_count()
    occ = modes[np.argsort((strings[:, None] & bit[modes]) == 0, axis=1,
                           kind="stable")]
    occ, vir, n_vir = occ[:, :count], occ[:, count:], len(modes) - count
    at, a, i = np.arange(n)[:, None, None], occ[:, :, None], vir[:, None]
    new = np.searchsorted(strings, strings[:, None, None] ^ bit[a] ^ bit[i])
    singles = ((new - at) * stride).reshape(n, -1), (a * m + i).reshape(n, -1)
    places = np.array([(p * n_vir + r, q * n_vir + t)
                       for p, q in combinations(range(count), 2)
                       for r, t in combinations(range(n_vir), 2)],
                      dtype=int).reshape(-1, 2).T
    steps = np.empty((n, places.shape[1]), dtype=np.int32)
    values = np.empty(steps.shape)
    rows = max(1, CHUNK_EXCITATIONS // max(places.shape[1], 1))
    # none to form with fewer than two electrons or two holes
    for start in range(0, n if places.size else 0, rows):
        s = slice(start, start + rows)
        # the holes' places in occ and the particles' in vir, as (n2, rows)
        (p, q), (r, t) = np.divmod(places, n_vir)
        a, b, i, j = occ[s].T[p], occ[s].T[q], vir[s].T[r], vir[s].T[t]
        new = strings[s] ^ bit[a] ^ bit[b] ^ bit[i] ^ bit[j]
        steps[s] = ((np.searchsorted(strings, new) - at[s, 0, 0]) * stride).T
        values[s] = (_kept(g((a, b, i, j))) * np.sign((i - b) * (a - j))).T
    return *singles, places, steps, values


def _sector_entries(spin_ints, n_electrons: int, ms2: int):
    """H on the (N, Sz) sector, the grid of its alpha by its beta strings:
    the dimension, then (first row, columns, values) for runs of rows of
    about ``CHUNK_EXCITATIONS`` entries, zeros included; see
    ``sector_hamiltonian``. A row holds its diagonal, the singles and
    same-spin doubles of both its strings, and each alpha single with each
    beta single. A single a -> i has the sign (-1)^k, k the occupied modes
    strictly between a and i, and a double a < b -> i < j the signs of
    a -> i and b -> j times sign((i - b) (a - j)). Callers run it under
    ``np.errstate(over="ignore", invalid="ignore")``."""
    m = spin_ints.n_spin_orbitals
    alpha, beta = _spin_strings(m, n_electrons, ms2)
    if not len(alpha):
        yield 0
        return
    g, x, parity = spin_ints.antisymmetrized, np.arange(m), np.array([1, -1.0])
    h1, bit, r = _kept(spin_ints.h1).ravel(), _bits(x), x[:, None, None]
    single = _kept(g((x[:, None], r, x, r))).ravel()  # <pr||qr> at [r, p, q]
    # at [p, q], the modes between p and q, whose count on a row gives the
    # sign of a single p -> q
    between = ((bit[:, None] - _ONE ^ bit - _ONE) & ~bit[:, None]).ravel()
    e, o = x[::2], x[1::2]
    a, i, b, j = e[:, None, None, None], e[:, None, None], o[:, None], o
    mixed = (_kept(g((np.minimum(a, b), np.maximum(a, b), np.minimum(i, j),
                      np.maximum(i, j)))) * np.sign((i - b) * (a - j))).ravel()
    # at [p, q], the place in mixed of an alpha or a beta single p -> q
    where = np.zeros((m, m), dtype=int)
    where[::2, ::2] = (e[:, None] // 2 * len(e) + e // 2) * len(o) ** 2
    where[1::2, 1::2] = o[:, None] // 2 * len(o) + o // 2
    tables = [_string_tables(g, strings, x[spin::2], bit, stride)
              for spin, strings, stride in ((0, alpha, len(beta)),
                                            (1, beta, 1))]
    k1a, k1b = (t[0].shape[1] for t in tables)
    pick = np.concatenate([tables[0][2], tables[1][2] + k1a], axis=1)
    grid = (alpha[:, None] | beta).ravel()
    order = np.argsort(grid)
    pos = np.empty(len(grid), dtype=np.int32)   # int32 below SECTOR_DIM_CAP
    pos[order] = np.arange(len(grid))
    per_row = 1 + k1a + k1b + pick.shape[1] + k1a * k1b
    yield len(grid)
    lo, hi = np.array(list(combinations(range(n_electrons), 2)),
                      dtype=int).reshape(-1, 2).T
    rows = max(1, CHUNK_EXCITATIONS // per_row)
    for start in range(0, len(grid), rows):
        cell = order[start:start + rows]
        det, c = grid[cell], len(cell)
        occ = np.nonzero(det[:, None] & bit)[1].reshape(c, n_electrons)
        # shift + sum h_ii + sum <ij||ij>, <ij||ij> at single[j, i, i]
        diag = np.cumsum(np.concatenate(
            [np.full((c, 1), float(spin_ints.scalar_shift)),
             h1[occ * (m + 1)],
             single[occ[:, hi] * m * m + occ[:, lo] * (m + 1)]], axis=1),
            axis=1)[:, -1:]
        (sa, ka, s2a, da), (sb, kb, s2b, db) = (
            [table[k][row] for k in (0, 1, 3, 4)]
            for table, row in zip(tables, np.divmod(cell, len(beta))))
        key = np.concatenate([ka, kb], axis=1)
        val1 = h1[key]
        for at in occ.T * (m * m):
            val1 += single[key + at[:, None]]
        sign = parity[np.bitwise_count(det[:, None] & between[key]) & 1]
        val1 *= sign
        val2 = np.concatenate([da, db], axis=1) * sign[:, pick[0]] \
            * sign[:, pick[1]]
        place = where.ravel()[key]
        mix = mixed[place[:, :k1a, None] + place[:, None, k1a:]] \
            * sign[:, :k1a, None] * sign[:, None, k1a:]
        steps = np.concatenate(
            [np.zeros((c, 1), dtype=int), sa, sb, s2a, s2b,
             (sa[:, :, None] + sb[:, None]).reshape(c, -1)], axis=1)
        yield start, pos[cell[:, None] + steps], np.concatenate(
            [diag, val1, val2, mix.reshape(c, -1)], axis=1)


@np.errstate(over="ignore", invalid="ignore")
def sector_hamiltonian(spin_ints, n_electrons: int, ms2: int):
    """CSR matrix of H on the (N, Sz) sector, straight from the integrals.

    Rows and columns follow ``sector_determinants``. Entry (R, D) is
    <R|H|D> of the operator of ``build_hamiltonian``, by the Slater-Condon
    rules (Szabo & Ostlund, Modern Quantum Chemistry, section 2.3):

    - D = R: shift + sum_i h_ii + sum_{i<j} <ij||ij>;
    - D = R with a replaced by i: s (h_ai + sum_k <ak||ik>), k over the
      occupied modes of R (<aa||ia> vanishes);
    - D = R with a < b replaced by i < j: s <ab||ij>;

    where s is the sign ``_string_sign`` gives a_a^+ a_i, or
    a_a^+ a_b^+ a_j a_i, on D. Integrals are pruned as in
    ``build_hamiltonian`` and terms summed in its term order, i, j and k
    ascending; exact zeros are left out. The entries, read off per-string
    tables (``_sector_entries``) in runs of rows of about
    ``CHUNK_EXCITATIONS``, are appended to one CSR matrix grown in place by
    their non-zeros, so that memory follows the non-zero count.
    """
    import scipy.sparse as sp
    chunks = _sector_entries(spin_ints, n_electrons, ms2)
    n = next(chunks)
    indptr = np.zeros(n + 1, dtype=np.int32)
    indices, data = np.empty(0, dtype=np.int32), np.empty(0)
    for start, cols, vals in chunks:
        kept, stop = vals != 0, start + len(cols)   # NaN is kept
        indptr[start + 1:stop + 1] = indptr[start] + np.cumsum(
            np.count_nonzero(kept, axis=1))
        for x in (indices, data):
            x.resize(indptr[stop], refcheck=False)
        indices[indptr[start]:], data[indptr[start]:] = cols[kept], vals[kept]
    mat = sp.csr_matrix((data, indices, indptr), shape=(n, n))
    mat.sort_indices()
    return mat


def excitation_matrix(key, dets):
    """E, the excitation of ``excitation_generator(key)``, on ``dets``, a
    strictly ascending ``uint64`` array such as ``sector_determinants``
    gives, as (rows, cols, signs): E v has signs * v[cols] at rows and
    zeros elsewhere, and kappa = E - E^+ adds (cols, rows, -signs).

    E acts on the determinants that hold every hole of the key, (i,) or (i, j),
    and none of its particles, (a,) or (a, b). Targets outside ``dets`` are
    dropped, so each row and each column holds at most one non-zero; rows and
    cols are disjoint. The modes of ``key`` are distinct. SectorError when
    ``dets`` is not strictly ascending.
    """
    if np.any(dets[1:] <= dets[:-1]):
        raise SectorError("determinants not in strictly ascending order")
    holes, particles = np.asarray(key, dtype=np.uint64).reshape(2, -1)
    string = np.concatenate([particles, holes[::-1]])
    fill, clear = (np.bitwise_or.reduce(_bits(m)) for m in (holes, particles))
    col = np.flatnonzero(((dets & fill) == fill) & ((dets & clear) == 0))
    row = _connected(dets, dets[col], *string)
    col, row = col[row >= 0], row[row >= 0]
    return row, col, _string_sign(dets[col], *string)


def _max_difference(a, b):
    """max |a - b| of two arrays of one length, NaN if a term is NaN,
    ``CHUNK_EXCITATIONS`` entries at a time."""
    step = CHUNK_EXCITATIONS
    return np.max([np.abs(a[i:i + step] - b[i:i + step]).max()
                   for i in range(0, len(a), step)], initial=0.0)


@np.errstate(over="ignore", invalid="ignore")
def checked_sector_hamiltonian(spin_ints, n_electrons: int, ms2: int):
    """(H + H^T) / 2 on the (N, Sz) sector, H the matrix of
    ``sector_hamiltonian``: a dense array, filled straight from the
    entries, below ``DENSE_SECTOR_LIMIT`` determinants and CSR above.

    SectorError when H is not Hermitian in the sector to
    ``HERMITIAN_TOL``; NonFiniteError when an entry is inf or NaN.
    """
    if sector_dimension(spin_ints.n_spin_orbitals, n_electrons,
                        ms2) < DENSE_SECTOR_LIMIT:
        chunks = _sector_entries(spin_ints, n_electrons, ms2)
        mat = np.zeros((next(chunks),) * 2)
        for start, cols, vals in chunks:
            # + 0.0 leaves -0.0 as the +0.0 of an entry left out
            mat[np.arange(start, start + len(cols))[:, None], cols] = \
                vals + 0.0
        # |H - H^T| and then (H + H^T) / 2 in one buffer
        data = mat - mat.T
        worst = np.abs(data, out=data).max(initial=0.0)
        mat = np.divide(np.add(mat, mat.T, out=data), 2, out=data)
    else:
        mat = sector_hamiltonian(spin_ints, n_electrons, ms2)
        # H is averaged with its one transposed copy; where the two share
        # a pattern, as they do unless an entry's mirror is an exact zero,
        # entry by entry and in place, without a third matrix
        mat_t = mat.T.tocsr()
        if (np.array_equal(mat.indptr, mat_t.indptr)
                and np.array_equal(mat.indices, mat_t.indices)):
            worst = _max_difference(mat.data, mat_t.data)
            mat.data += mat_t.data
        else:
            worst = abs(mat - mat_t).max()
            mat = mat + mat_t
        del mat_t
        mat.data /= 2
        data = mat.data
    if worst > HERMITIAN_TOL:
        raise SectorError("Hamiltonian is not Hermitian in the sector")
    check_finite("sector matrix has an inf or NaN entry", data)
    return mat


def _lowest_eigenpair(mat):
    """The lowest eigenpair of the symmetric ``mat``, a dense array or a
    CSR matrix, by Davidson's method with the diagonal as preconditioner
    (E. R. Davidson, J. Comput. Phys. 17, 87 (1975)); see the DAVIDSON_*
    constants. Every step is fixed, so the pair repeats bit for bit.

    ConvergenceError when the residual is still above its tolerance after
    ``DAVIDSON_MAX_ITER`` iterations.
    """
    n = mat.shape[0]
    if n <= DAVIDSON_MAX_BASIS:
        # mat @ I is a dense copy of either layout
        w, v = np.linalg.eigh(mat @ np.eye(n))
        return w[0], v[:, 0]
    diag = mat.diagonal()
    # basis vectors and their products with mat, one a row
    basis = np.zeros((DAVIDSON_MAX_BASIS, n))
    low = np.argsort(diag, kind="stable")[:DAVIDSON_START]
    basis[np.arange(DAVIDSON_START), low] = 1.0
    # a random row: the unit vectors can be orthogonal, by symmetry, to the
    # ground state
    extra = np.random.default_rng(0).standard_normal(n)
    extra[low] = 0.0
    basis[DAVIDSON_START] = extra / np.linalg.norm(extra)
    k = DAVIDSON_START + 1
    product = np.zeros_like(basis)
    product[:k] = (mat @ basis[:k].T).T
    for _ in range(DAVIDSON_MAX_ITER):
        theta, s = np.linalg.eigh(basis[:k] @ product[:k].T)
        x = s[:, 0] @ basis[:k]
        residual = s[:, 0] @ product[:k] - theta[0] * x
        # in units of the largest Ritz value, so that no square overflows
        scale = max(1.0, np.abs(theta).max())
        norm = scale * np.linalg.norm(residual / scale)
        if norm <= max(DAVIDSON_TOL, DAVIDSON_ULPS * np.spacing(scale)):
            return theta[0], x
        if k == DAVIDSON_MAX_BASIS:
            keep = s[:, :DAVIDSON_START].T
            basis[:DAVIDSON_START] = keep @ basis
            product[:DAVIDSON_START] = keep @ product
            k = DAVIDSON_START
        shift = theta[0] - diag
        shift[np.abs(shift) < DAVIDSON_FLOOR] = DAVIDSON_FLOOR
        t = residual / shift
        for _ in range(2):
            t -= (basis[:k] @ t) @ basis[:k]
        basis[k] = t / np.linalg.norm(t)
        product[k] = mat @ basis[k]
        k += 1
    raise ConvergenceError(
        f"ground state not converged after {DAVIDSON_MAX_ITER} iterations; "
        f"residual norm {norm:.3e}")


@np.errstate(over="ignore", invalid="ignore")
def exact_ground_state(spin_ints, n_electrons: int, ms2: int = 0):
    """Lowest eigenpair of H in the (N, Sz) determinant sector, and only
    that pair, from one NumPy Davidson solver on the H of
    ``checked_sector_hamiltonian``, dense or CSR; a sector of at most
    ``DAVIDSON_MAX_BASIS`` determinants is diagonalized whole. The start
    block is fixed, so the energy repeats bit for bit.

    SectorError when H is not Hermitian in the sector to
    ``HERMITIAN_TOL``; NonFiniteError when a matrix entry or the energy is
    inf or NaN; ConvergenceError when the solver runs out of iterations.
    """
    m = spin_ints.n_spin_orbitals
    if not sector_dimension(m, n_electrons, ms2):
        raise SectorError(
            f"empty sector: N={n_electrons}, MS2={ms2}, modes={m}")
    mat = checked_sector_hamiltonian(spin_ints, n_electrons, ms2)
    energy, vector = _lowest_eigenpair(mat)
    check_finite(f"ground-state energy overflowed: {energy}", energy)
    return float(energy), vector
