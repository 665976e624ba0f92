"""Downfolded effective Hamiltonians in a reduced active space.

The external cluster rotation is folded in through the truncated
similarity transform  H + [H_N, s] + 1/2 [[F_N, s], s]  with s the
anti-Hermitian external cluster operator; the result is normal ordered
relative to the Hartree-Fock reference, cut to one- and two-body strings
with all indices active, and re-expressed as dressed chi tensors over the
compact active spin orbitals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import integrals as integrals_mod
from .amplitudes import AmplitudePartition, ClusterAmplitudes, partition
from .fermion import (PRUNE_THRESHOLD, ActiveSpace, FermionOperator,
                      build_hamiltonian, commutator, fock_operator,
                      normal_order, ph_normal_order, restrict)


@dataclass
class DuccHamiltonian:
    """Dressed scalar/one-/two-body coefficients over active spin orbitals.

    chi2 is antisymmetrized: the operator reads
    scalar + sum chi1[P,Q] a_P^+ a_Q
           + 1/4 sum chi2[P,Q,R,S] a_P^+ a_Q^+ a_S a_R
    with P,Q,R,S compact active spin-orbital indices (occupied first).
    """

    chi1: np.ndarray
    chi2: np.ndarray
    scalar: float
    active: ActiveSpace

    @property
    def n_active_spin(self):
        return self.chi1.shape[0]

    @property
    def n_electrons(self):
        return 2 * len(self.active.occupied)

    def to_fermion_operator(self) -> FermionOperator:
        m = self.n_active_spin
        op = FermionOperator.zero(m)
        if self.scalar:
            op.add_term((), self.scalar)
        for p, q in np.argwhere(np.abs(self.chi1) > PRUNE_THRESHOLD):
            op.add_term(((int(p), 1), (int(q), 0)), float(self.chi1[p, q]))
        for p, q, r, s in np.argwhere(np.abs(self.chi2) > PRUNE_THRESHOLD):
            op.add_term(((int(p), 1), (int(q), 1), (int(s), 0), (int(r), 0)),
                        0.25 * float(self.chi2[p, q, r, s]))
        return op

    def to_spin_integral_set(self) -> integrals_mod.SpinIntegralSet:
        """Chemists'-order spin-orbital storage: (pq|rs) = chi2[p,r,q,s]/2."""
        g = 0.5 * np.einsum("prqs->pqrs", self.chi2)
        return integrals_mod.SpinIntegralSet(
            self.n_active_spin, self.chi1.copy(), g, self.scalar,
            label="ducc")

    def save(self, path):
        integrals_mod.save_spin_fcidump(
            self.to_spin_integral_set(), path, nelec=self.n_electrons, ms2=0)


def sigma_ext_operator(part: AmplitudePartition) -> FermionOperator:
    """Anti-Hermitian T_ext - T_ext^+ from the external amplitudes."""
    ext = part.external
    n_modes = _n_modes(ext)
    t_op = FermionOperator.zero(n_modes)
    for (i, a), v in ext.t1.items():
        t_op.add_term(((a, 1), (i, 0)), v)
    for (i, j, a, b), v in ext.t2.items():
        t_op.add_term(((a, 1), (b, 1), (j, 0), (i, 0)), v)
    return (t_op - t_op.dagger()).prune()


def _n_modes(t: ClusterAmplitudes):
    modes = tuple(t.occupied) + tuple(t.virtual)
    return max(modes) + 1 if modes else 0


def commutator_expand(h: FermionOperator, f: FermionOperator,
                      sigma: FermionOperator, keep=None,
                      threshold=PRUNE_THRESHOLD) -> FermionOperator:
    """H + [H_N, s] + 1/2 [[F_N, s], s], normal ordered and merged.

    Scalar parts of H and F commute away, so plain operators are accepted;
    the scalar normalization keeps full-space eigenvalues of the output
    identical to those of H when the active space is the whole space.
    With ``keep``, a set of modes, only strings over ``keep`` are formed;
    the inner [F_N, s] stays whole because the outer commutator can
    contract its outside modes away.
    """
    h_bar = restrict(normal_order(h, threshold), keep)
    if len(sigma) == 0:
        return h_bar
    h_bar = h_bar + commutator(h, sigma, keep, threshold)
    inner = commutator(f, sigma, None, threshold)
    h_bar = h_bar + 0.5 * commutator(inner, sigma, keep, threshold)
    return normal_order(h_bar, threshold)


def project_active(h_bar: FermionOperator, space: ActiveSpace,
                   ref: int) -> DuccHamiltonian:
    """Keep active-index strings of rank <= 2 in particle-hole normal form.

    The survivors are mapped back to plain creation/annihilation form with
    Wick contraction constants folded into chi1 and the scalar.
    """
    active = set(space.active_spin)
    compact = space.compact_index()
    ordered = ph_normal_order(h_bar, ref)
    kept = FermionOperator.zero(space.n_active_spin)
    for ops, c in ordered.terms.items():
        if len(ops) > 4:
            continue
        if any(mode not in active for mode, _ in ops):
            continue
        kept.add_term(tuple((compact[mode], dag) for mode, dag in ops), c)
    plain = normal_order(kept)

    m = space.n_active_spin
    chi1 = np.zeros((m, m))
    chi2 = np.zeros((m, m, m, m))
    scalar = 0.0
    for ops, c in plain.terms.items():
        c = float(np.real_if_close(c))
        if len(ops) == 0:
            scalar += c
        elif len(ops) == 2:
            (p, _), (q, _) = ops
            chi1[p, q] += c
        else:
            # canonical a+_p a+_q a_r a_s with p<q, r<s => chi[p,q,s,r] = c
            (p, _), (q, _), (r, _), (s, _) = ops
            for (pp, qq, s1) in ((p, q, 1.0), (q, p, -1.0)):
                for (rr, ss, s2) in ((s, r, 1.0), (r, s, -1.0)):
                    chi2[pp, qq, rr, ss] += s1 * s2 * c
    return DuccHamiltonian(chi1, chi2, scalar, space)


def downfold(spin_ints, space: ActiveSpace, t: ClusterAmplitudes,
             threshold=PRUNE_THRESHOLD) -> DuccHamiltonian:
    """Full pipeline: partition, external rotation, expansion, projection.

    Strings with a frozen-external mode are never formed: every such mode
    is a virtual, which particle-hole reordering never contracts, so
    ``project_active`` would drop them all.
    """
    ref = _reference_determinant(space)
    h = build_hamiltonian(spin_ints)
    f = fock_operator(spin_ints, ref)
    part = partition(t, space)
    sigma = sigma_ext_operator(part)
    if sigma.n_modes < h.n_modes:
        sigma = FermionOperator(h.n_modes, sigma.terms)
    h_bar = commutator_expand(h, f, sigma, frozenset(space.active_spin),
                              threshold)
    return project_active(h_bar, space, ref)


def _reference_determinant(space: ActiveSpace) -> int:
    return sum(1 << m for m in space.occupied_spin)


def bare_restriction(spin_ints, space: ActiveSpace) -> DuccHamiltonian:
    """Active-space cut of the untransformed Hamiltonian (sigma_ext = 0)."""
    ref = _reference_determinant(space)
    h = normal_order(build_hamiltonian(spin_ints))
    return project_active(h, space, ref)
