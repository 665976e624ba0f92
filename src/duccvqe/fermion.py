"""Sparse second-quantized operator algebra over spin orbitals.

Operator strings are tuples of (mode, dagger) pairs with 0-based spin-orbital
modes, kept as written: nothing here reorders them. ``build_hamiltonian``
writes H in the canonical vacuum normal form, creation operators first, each
group by ascending mode; normal ordering itself is a test oracle.

Sector matrices are built on whole (N, Sz) sectors: H from the integrals
(``sector_hamiltonian``, checked by ``checked_sector_hamiltonian``, dense
below ``DENSE_SECTOR_LIMIT`` and CSR above) and the UCC excitations E as
signed index maps (``excitation_matrix``). SciPy is imported only where a
CSR matrix or a solver is made. H as operator strings
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
#   determinants   lowest pair: dense eigh / eigsh   one v.Hv: dense / CSR
#   100            0.44-0.46 / 2.4-2.6 ms            5.0 / 12-13 us
#   400            7.2-7.5 / 6.1-6.9 ms              30-34 / 46-48 us
#   560            19-30 / 15-23 ms                  83-94 / 98-101 us
#   735            37-38 / 15-17 ms                  186-187 / 129-131 us
#   1225           163-178 / 28-34 ms                551-552 / 241-256 us
# The solve crosses near 400 determinants and the product between 560 and
# 735; a VQE takes hundreds of products to one solve, so the limit follows
# the product.
DENSE_SECTOR_LIMIT = 600
# exact_ground_state costs about 34 B and 0.6 us a non-zero of the sector
# matrix of H, on top of the integrals: measured with BLAS on 1 thread on
# a 2-vCPU VM on seeded systems, 14,400 determinants (10 orbitals, 6
# electrons, 610 non-zeros a row) took 4.6 s at 375 MB peak RSS, 18,496 (17
# orbitals, 4 electrons, 1171 a row) 13.1 s at 796 MB, and 23,409 (18
# orbitals, 4 electrons, 1329 a row, the densest sector below the cap)
# 16-19 s at 942-1156 MB over three runs. The cap keeps one run within
# about 1.2 GB and half a minute.
SECTOR_DIM_CAP = 25_000
# entries formed at once: candidate excitations by sector_hamiltonian,
# (string, amplitude) pairs by simulator.expectation, differences by the
# Hermiticity check of checked_sector_hamiltonian
CHUNK_EXCITATIONS = 1 << 18


class DataError(Exception):
    """Input data the pipeline cannot use; ``ducc-vqe`` exits 3 on it."""


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
    if n_modes > MAX_MODES:
        raise SectorError(f"{n_modes} modes do not fit a 64-bit determinant")
    dim = sector_dimension(n_modes, n_electrons, ms2)
    if dim > SECTOR_DIM_CAP:
        raise SectorError(
            f"sector dimension {dim} exceeds cap {SECTOR_DIM_CAP}")
    if not dim:
        return np.zeros(0, dtype=np.uint64)
    alpha, beta = (np.array([sum(1 << p for p in occ) for occ in
                             combinations(range(spin, n_modes, 2), count)],
                            dtype=np.uint64)
                   for spin, count in ((0, (n_electrons + ms2) // 2),
                                       (1, (n_electrons - ms2) // 2)))
    return np.sort((alpha[:, None] | beta).ravel())


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


def _sector_entries(spin_ints, dets):
    """The non-zero entries of H on ``dets``, the whole sector of
    ``sector_determinants``, one chunk of rows at a time: (first row, row
    count, rows within the chunk, columns, values); see ``sector_hamiltonian``.
    Callers iterate it under ``np.errstate(over="ignore", invalid="ignore")``,
    so that an overflow leaves inf or NaN for their finiteness checks."""
    m, n = spin_ints.n_spin_orbitals, len(dets)
    if not n:
        return
    n_el = int(np.bitwise_count(dets[0]))
    h1, g = _kept(spin_ints.h1), spin_ints.antisymmetrized
    p, q, r = np.ogrid[:m, :m, :m]
    coulomb = _kept(g((p, q, p, q))[..., 0])    # <pq||pq>
    single = _kept(g((p, r, q, r)))     # <pr||qr> at [p, q, r]
    modes = np.arange(m, dtype=np.uint64)
    holes, particles = np.triu_indices(n_el, 1), np.triu_indices(m - n_el, 1)
    per_row = 1 + n_el * (m - n_el) + len(holes[0]) * len(particles[0])
    step = max(1, CHUNK_EXCITATIONS // per_row)
    for start in range(0, n, step):
        rows = dets[start:start + step]
        c = len(rows)
        filled = (rows[:, None] >> modes & _ONE).astype(bool)
        occ = np.nonzero(filled)[1].reshape(c, n_el)
        vir = np.nonzero(~filled)[1].reshape(c, m - n_el)

        diag = np.full(c, float(spin_ints.scalar_shift))
        for k in range(n_el):
            diag += h1[occ[:, k], occ[:, k]]
        for k, l in zip(*holes):
            diag += coulomb[occ[:, k], occ[:, l]]

        r1, ka, ki = np.nonzero(occ[:, :, None] % 2 == vir[:, None, :] % 2)
        a, i = occ[r1, ka], vir[r1, ki]
        col1 = _connected(dets, rows[r1], a, i)
        val1 = h1[a, i]
        for k in range(n_el):
            val1 += single[a, i, occ[r1, k]]
        val1 *= _string_sign(dets[col1], a, i)

        betas_h = occ[:, holes[0]] % 2 + occ[:, holes[1]] % 2
        betas_p = vir[:, particles[0]] % 2 + vir[:, particles[1]] % 2
        r2, kh, kp = np.nonzero(betas_h[:, :, None] == betas_p[:, None, :])
        a, b = occ[r2, holes[0][kh]], occ[r2, holes[1][kh]]
        i, j = vir[r2, particles[0][kp]], vir[r2, particles[1][kp]]
        col2 = _connected(dets, rows[r2], a, b, i, j)
        val2 = _kept(g((a, b, i, j))) * _string_sign(dets[col2], a, b, j, i)

        row = np.concatenate([np.arange(c), r1, r2])
        col = np.concatenate([np.arange(start, start + c), col1, col2])
        val = np.concatenate([diag, val1, val2])
        kept = val != 0     # NaN is kept
        yield start, c, row[kept], col[kept], val[kept]


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
    a_a^+ a_b^+ a_j a_i, on D. Each <pq||rs> is read entry by entry by
    ``antisymmetrized``, never the whole tensor. Integrals are pruned as in
    ``build_hamiltonian`` and terms summed in its term order; exact zeros
    are left out. Only excitations that keep Sz are formed, and each lands
    in the sector, for chunks of rows with about ``CHUNK_EXCITATIONS`` of
    them, so that memory follows the non-zero count.
    """
    import scipy.sparse as sp
    dets = sector_determinants(spin_ints.n_spin_orbitals, n_electrons, ms2)
    blocks = [sp.csr_matrix((val, (row, col)), shape=(c, len(dets)))
              for _, c, row, col, val in _sector_entries(spin_ints, dets)]
    return sp.vstack(blocks, format="csr") if blocks \
        else sp.csr_matrix((0, 0))


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
    dets = sector_determinants(spin_ints.n_spin_orbitals, n_electrons, ms2)
    if len(dets) < DENSE_SECTOR_LIMIT:
        mat = np.zeros((len(dets), len(dets)))
        for start, _, row, col, val in _sector_entries(spin_ints, dets):
            mat[start + row, col] = val
        worst = np.abs(mat - mat.T).max(initial=0.0)
        mat = (mat + mat.T) / 2
        data = mat
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


@np.errstate(over="ignore", invalid="ignore")
def exact_ground_state(spin_ints, n_electrons: int, ms2: int = 0):
    """Lowest eigenpair of H in the (N, Sz) determinant sector, and only
    that pair: LAPACK's partial ``eigh`` on a dense H, ARPACK's Lanczos
    ``eigsh`` from a fixed start vector on a CSR H (see
    ``checked_sector_hamiltonian``), so the energy repeats bit for bit.

    SectorError when H is not Hermitian in the sector to
    ``HERMITIAN_TOL``; NonFiniteError when a matrix entry or the energy is
    inf or NaN.
    """
    m = spin_ints.n_spin_orbitals
    if not sector_dimension(m, n_electrons, ms2):
        raise SectorError(
            f"empty sector: N={n_electrons}, MS2={ms2}, modes={m}")
    mat = checked_sector_hamiltonian(spin_ints, n_electrons, ms2)
    # SciPy's solvers are imported where they run, not with the package
    if not isinstance(mat, np.ndarray):
        import scipy.sparse.linalg as spla
        # a random start: a unit vector can be orthogonal, by symmetry, to
        # the ground state
        start = np.random.default_rng(0).standard_normal(mat.shape[0])
        w, v = spla.eigsh(mat, k=1, which="SA", v0=start)
    else:
        import scipy.linalg as sla
        w, v = sla.eigh(mat, subset_by_index=(0, 0))
    check_finite(f"ground-state energy overflowed: {w[0]}", w[0])
    return float(w[0]), v[:, 0]
