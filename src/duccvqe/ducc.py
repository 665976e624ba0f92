"""Downfolded effective Hamiltonians in a reduced active space.

The external cluster rotation is folded in through the truncated
similarity transform  H + [H_N, s] + 1/2 [[F_N, s], s]  with s the
anti-Hermitian external cluster operator; the result is normal ordered
relative to the Hartree-Fock reference, cut to one- and two-body strings
with all indices active, and returned as a SpinIntegralSet over the
compact active spin orbitals.
"""

from __future__ import annotations

import numpy as np

from .amplitudes import AmplitudePartition, ClusterAmplitudes, partition
from .fermion import (PRUNE_THRESHOLD, ActiveSpace, FermionOperator,
                      build_hamiltonian, commutator, excitation_generator,
                      fock_operator, normal_order, ph_normal_order, restrict)
from .integrals import SpinIntegralSet


def sigma_ext_operator(part: AmplitudePartition, n_modes) -> FermionOperator:
    """Anti-Hermitian sum t_k kappa_k over the external amplitudes."""
    ext = part.external
    sigma = FermionOperator.zero(n_modes)
    for key, t in (*ext.t1.items(), *ext.t2.items()):
        for ops, c in excitation_generator(key, n_modes).terms.items():
            sigma.add_term(ops, t * c)
    return sigma.prune()


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
                   ref: int) -> SpinIntegralSet:
    """Keep active-index strings of rank <= 2 in particle-hole normal form.

    The survivors are mapped back to plain creation/annihilation form with
    Wick contraction constants folded into chi1 and the scalar. The result
    reads  scalar + sum chi1[P,Q] a_P^+ a_Q
                  + 1/4 sum chi2[P,Q,R,S] a_P^+ a_Q^+ a_S a_R
    over compact active spin orbitals P, Q, R, S (occupied first), with
    chi2 antisymmetric; it is stored with h1 = chi1 and chemists'
    (pq|rs) = chi2[p,r,q,s]/2, so ``antisymmetrized()`` gives chi2 back.
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
    return SpinIntegralSet(m, chi1, 0.5 * np.einsum("prqs->pqrs", chi2),
                           scalar, label="ducc")


def downfold(spin_ints, space: ActiveSpace, t: ClusterAmplitudes,
             threshold=PRUNE_THRESHOLD) -> SpinIntegralSet:
    """Full pipeline: partition, external rotation, expansion, projection.

    Strings with a frozen-external mode are never formed: every such mode
    is a virtual, which particle-hole reordering never contracts, so
    ``project_active`` would drop them all.
    """
    ref = _reference_determinant(space)
    h = build_hamiltonian(spin_ints)
    f = fock_operator(spin_ints, ref)
    part = partition(t, space)
    sigma = sigma_ext_operator(part, h.n_modes)
    h_bar = commutator_expand(h, f, sigma, frozenset(space.active_spin),
                              threshold)
    return project_active(h_bar, space, ref)


def _reference_determinant(space: ActiveSpace) -> int:
    return sum(1 << m for m in space.occupied_spin)


def bare_restriction(spin_ints, space: ActiveSpace) -> SpinIntegralSet:
    """Active-space cut of the untransformed Hamiltonian (sigma_ext = 0)."""
    ref = _reference_determinant(space)
    h = normal_order(build_hamiltonian(spin_ints))
    return project_active(h, space, ref)
