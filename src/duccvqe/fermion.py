"""Sparse second-quantized operator algebra over spin orbitals.

Operator strings are tuples of (mode, dagger) pairs with 0-based spin-orbital
modes. The canonical vacuum normal form puts creation operators first, each
group sorted by ascending mode, with signs tracked through transposition
parity and anticommutator contractions {a_p, a_q^+} = delta_pq.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

PRUNE_THRESHOLD = 1e-12
DENSE_SECTOR_LIMIT = 2000
SECTOR_DIM_CAP = 2_000_000


class SpaceError(Exception):
    """Inconsistent active-space partition."""


class SectorError(Exception):
    """Empty or oversized particle-number/Sz sector."""


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

    @property
    def active_spatial(self):
        return self.occupied + self.active_virtual

    @property
    def n_orbitals(self):
        return len(self.occupied) + len(self.active_virtual) \
            + len(self.frozen_external)

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


@dataclass
class FermionOperator:
    """Weighted sum of second-quantized operator strings."""

    n_modes: int
    terms: dict = field(default_factory=dict)

    @classmethod
    def zero(cls, n_modes):
        return cls(n_modes, {})

    @classmethod
    def identity(cls, n_modes, coeff=1.0):
        return cls(n_modes, {(): coeff})

    @classmethod
    def from_term(cls, n_modes, ops, coeff=1.0):
        return cls(n_modes, {tuple(ops): coeff})

    def copy(self):
        return FermionOperator(self.n_modes, dict(self.terms))

    def add_term(self, ops, coeff):
        key = tuple(ops)
        self.terms[key] = self.terms.get(key, 0.0) + coeff

    def __add__(self, other):
        out = self.copy()
        for ops, c in other.terms.items():
            out.add_term(ops, c)
        return out

    def __sub__(self, other):
        return self + (other * -1.0)

    def __mul__(self, factor):
        if isinstance(factor, FermionOperator):
            return NotImplemented  # operator products go through multiply
        return FermionOperator(
            self.n_modes, {ops: c * factor for ops, c in self.terms.items()})

    __rmul__ = __mul__

    def dagger(self):
        out = FermionOperator.zero(self.n_modes)
        for ops, c in self.terms.items():
            rev = tuple((mode, 1 - dag) for mode, dag in reversed(ops))
            out.add_term(rev, np.conjugate(c))
        return out

    def prune(self, threshold=PRUNE_THRESHOLD):
        self.terms = {ops: c for ops, c in self.terms.items()
                      if abs(c) > threshold}
        return self

    def max_coeff(self):
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def __len__(self):
        return len(self.terms)


def _normal_order_string(ops, coeff, out):
    """Wick-rewrite one string into canonical vacuum normal form."""
    stack = [(list(ops), coeff)]
    while stack:
        s, c = stack.pop()
        i = 0
        done = True
        while i < len(s) - 1:
            (m1, d1), (m2, d2) = s[i], s[i + 1]
            if d1 == d2:
                if m1 == m2:
                    done = False
                    break  # a a or a+ a+ on same mode vanishes
                if m1 > m2:
                    s[i], s[i + 1] = s[i + 1], s[i]
                    c = -c
                    i = max(i - 1, 0)  # keep bubbling leftward
                else:
                    i += 1
                continue
            if d1 == 0 and d2 == 1:
                # a_p a_q^+ = delta_pq - a_q^+ a_p
                swapped = s[:i] + [s[i + 1], s[i]] + s[i + 2:]
                stack.append((swapped, -c))
                if m1 == m2:
                    stack.append((s[:i] + s[i + 2:], c))
                done = False
                break
            i += 1
        if done:
            key = tuple(s)
            out[key] = out.get(key, 0.0) + c


def normal_order(op: FermionOperator,
                 threshold=PRUNE_THRESHOLD) -> FermionOperator:
    """Canonical vacuum normal form; equals the input as an operator."""
    out = {}
    for ops, c in op.terms.items():
        if c != 0.0:
            _normal_order_string(ops, c, out)
    result = FermionOperator(op.n_modes, out)
    return result.prune(threshold)


def _flip_occupied(ops, occ_set):
    return tuple((m, 1 - d) if m in occ_set else (m, d) for m, d in ops)


def ph_normal_order(op: FermionOperator, ref: int,
                    threshold=PRUNE_THRESHOLD) -> FermionOperator:
    """Normal order relative to the Fermi vacuum of determinant ``ref``.

    Occupied-mode operators are hole-relabeled (a_i^+ <-> a_i), vacuum
    normal ordering is applied, and the labels are restored, so output
    strings have all quasiparticle creators on the left.
    """
    occ = {m for m in range(op.n_modes) if (ref >> m) & 1}
    flipped = FermionOperator(
        op.n_modes,
        {_flip_occupied(ops, occ): c for ops, c in op.terms.items()})
    ordered = normal_order(flipped, threshold)
    return FermionOperator(
        op.n_modes,
        {_flip_occupied(ops, occ): c for ops, c in ordered.terms.items()})


def normal_order_relative(op: FermionOperator, ref: int):
    """Return (<ref|op|ref>, op - <ref|op|ref>) in particle-hole form."""
    ordered = ph_normal_order(op, ref)
    scalar = ordered.terms.pop((), 0.0)
    return scalar, ordered


def _string_pieces(op: FermionOperator):
    """Each string of ``op`` in normal form, strings not merged.

    Unmerged pieces add into a product in the same order as the raw
    strings, so a pruned product is bitwise equal to the filtered full one.
    """
    for ops, c in op.terms.items():
        pieces = {}
        _normal_order_string(ops, c, pieces)
        yield from pieces.items()


def restrict(op: FermionOperator, keep) -> FermionOperator:
    """The strings of ``op`` whose modes all lie in ``keep`` (None: all)."""
    if keep is None:
        return op
    return FermionOperator(op.n_modes, {
        ops: c for ops, c in op.terms.items()
        if all(m in keep for m, _ in ops)})


def multiply(a: FermionOperator, b: FermionOperator, keep=None,
             threshold=PRUNE_THRESHOLD) -> FermionOperator:
    """Normal-ordered product a b.

    With ``keep``, a set of modes, only the output strings whose modes all
    lie in ``keep`` are formed. Each operand string is first brought to
    creators-first form, where only the annihilators of a string of ``a``
    contract with the creators of a string of ``b``. So a pair of strings
    can yield a string over ``keep`` only if the left one has no outside
    creator, the right one no outside annihilator, and the left's outside
    annihilators are exactly the right's outside creators; each string of
    ``a`` meets only those partners.
    """
    out = {}
    if keep is None:
        for ops1, c1 in a.terms.items():
            for ops2, c2 in b.terms.items():
                _normal_order_string(ops1 + ops2, c1 * c2, out)
        return FermionOperator(a.n_modes, out).prune(threshold)
    partners = {}
    for ops2, c2 in _string_pieces(b):
        if all(m in keep for m, d in ops2 if not d):
            key = tuple(m for m, d in ops2 if d and m not in keep)
            partners.setdefault(key, []).append((ops2, c2))
    for ops1, c1 in _string_pieces(a):
        if any(d and m not in keep for m, d in ops1):
            continue
        key = tuple(m for m, d in ops1 if m not in keep)
        for ops2, c2 in partners.get(key, ()):
            _normal_order_string(ops1 + ops2, c1 * c2, out)
    return restrict(FermionOperator(a.n_modes, out), keep).prune(threshold)


def commutator(a: FermionOperator, b: FermionOperator, keep=None,
               threshold=PRUNE_THRESHOLD) -> FermionOperator:
    """[a, b], restricted to strings over ``keep`` as in ``multiply``."""
    ab = multiply(a, b, keep, threshold)
    ba = multiply(b, a, keep, threshold)
    return (ab - ba).prune(threshold)


def build_hamiltonian(spin_ints, threshold=PRUNE_THRESHOLD) -> FermionOperator:
    """H = sum h_pq a_p^+ a_q + 1/2 sum (pq|rs) a_p^+ a_r^+ a_s a_q."""
    m = spin_ints.n_spin_orbitals
    op = FermionOperator.zero(m)
    if spin_ints.scalar_shift:
        op.add_term((), spin_ints.scalar_shift)
    for p, q in np.argwhere(np.abs(spin_ints.h1) > threshold):
        op.add_term(((int(p), 1), (int(q), 0)), float(spin_ints.h1[p, q]))
    for p, q, r, s in np.argwhere(np.abs(spin_ints.h2) > threshold):
        op.add_term(((int(p), 1), (int(r), 1), (int(s), 0), (int(q), 0)),
                    0.5 * float(spin_ints.h2[p, q, r, s]))
    return op


def hf_determinant(n_electrons: int) -> int:
    """Lowest spin orbitals occupied, interleaved alpha/beta ordering."""
    return (1 << n_electrons) - 1


def fock_matrix(spin_ints, ref: int) -> np.ndarray:
    """f_pq = h_pq + sum_{i occ} <pi||qi>."""
    occ = [m for m in range(spin_ints.n_spin_orbitals) if (ref >> m) & 1]
    g = spin_ints.antisymmetrized()
    f = spin_ints.h1.copy()
    for i in occ:
        f += g[:, i, :, i]
    return f


def fock_operator(spin_ints, ref: int) -> FermionOperator:
    f = fock_matrix(spin_ints, ref)
    op = FermionOperator.zero(spin_ints.n_spin_orbitals)
    for p, q in np.argwhere(np.abs(f) > PRUNE_THRESHOLD):
        op.add_term(((int(p), 1), (int(q), 0)), float(f[p, q]))
    return op


def hf_energy(spin_ints, ref: int) -> float:
    occ = [m for m in range(spin_ints.n_spin_orbitals) if (ref >> m) & 1]
    g = spin_ints.antisymmetrized()
    e = spin_ints.scalar_shift + sum(spin_ints.h1[i, i] for i in occ)
    e += 0.5 * sum(g[i, j, i, j] for i in occ for j in occ)
    return e


def apply_string(ops, det: int):
    """Apply an operator string to a determinant; (sign, det) or None."""
    sign = 1
    for mode, dag in reversed(ops):
        bit = 1 << mode
        if dag:
            if det & bit:
                return None
            if (det & (bit - 1)).bit_count() & 1:
                sign = -sign
            det |= bit
        else:
            if not det & bit:
                return None
            if (det & (bit - 1)).bit_count() & 1:
                sign = -sign
            det &= ~bit
    return sign, det


def sector_determinants(n_modes: int, n_electrons: int, ms2: int):
    """All determinants with given electron count and 2*Sz, sorted."""
    if (n_electrons + ms2) % 2:
        return []
    n_alpha = (n_electrons + ms2) // 2
    n_beta = (n_electrons - ms2) // 2
    alphas = [m for m in range(0, n_modes, 2)]
    betas = [m for m in range(1, n_modes, 2)]
    if not (0 <= n_alpha <= len(alphas) and 0 <= n_beta <= len(betas)):
        return []
    dets = []
    for occ_a in combinations(alphas, n_alpha):
        mask_a = sum(1 << m for m in occ_a)
        for occ_b in combinations(betas, n_beta):
            dets.append(mask_a + sum(1 << m for m in occ_b))
    return sorted(dets)


def sector_matrix(op: FermionOperator, dets):
    index = {d: i for i, d in enumerate(dets)}
    rows, cols, vals = [], [], []
    for col, det in enumerate(dets):
        for ops, c in op.terms.items():
            hit = apply_string(ops, det)
            if hit is None:
                continue
            sign, new_det = hit
            row = index.get(new_det)
            if row is not None:
                rows.append(row)
                cols.append(col)
                vals.append(sign * c)
    dim = len(dets)
    return sp.coo_matrix((vals, (rows, cols)), shape=(dim, dim)).tocsr()


def exact_ground_state(op: FermionOperator, n_electrons: int, ms2: int = 0,
                       dim_cap=SECTOR_DIM_CAP):
    """Lowest eigenpair of ``op`` in the (N, Sz) determinant sector."""
    dets = sector_determinants(op.n_modes, n_electrons, ms2)
    if not dets:
        raise SectorError(
            f"empty sector: N={n_electrons}, MS2={ms2}, modes={op.n_modes}")
    if len(dets) > dim_cap:
        raise SectorError(f"sector dimension {len(dets)} exceeds cap {dim_cap}")
    mat = sector_matrix(op, dets)
    if len(dets) == 1:
        return float(np.real(mat[0, 0])), np.ones(1)
    if len(dets) < DENSE_SECTOR_LIMIT:
        dense = mat.toarray()
        w, v = np.linalg.eigh((dense + dense.conj().T) / 2)
        return float(w[0]), v[:, 0]
    w, v = spla.eigsh((mat + mat.conj().T) / 2, k=1, which="SA")
    return float(w[0]), v[:, 0]


def is_hermitian(op: FermionOperator, tol=1e-10) -> bool:
    diff = normal_order(op - op.dagger())
    return diff.max_coeff() <= tol
