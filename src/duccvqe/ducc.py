"""Downfolded effective Hamiltonians in a reduced active space.

The external cluster rotation is folded in through the truncated
similarity transform  H + [H_N, s] + 1/2 [[F_N, s], s]  with s the
anti-Hermitian external cluster operator (Bauman et al., J. Chem. Phys.
151, 014107 (2019)). The result is cut to one- and two-body parts with all
indices active and returned as a SpinIntegralSet over the compact active
spin orbitals.

``downfold`` works on tensors (scalar, X1, X2), normal ordered relative to
the Hartree-Fock reference, N electrons in spin orbitals 0..N-1 as in
``amplitudes``, with X2 antisymmetric; each commutator keeps its zero-,
one- and two-body parts (the IMSRG(2) commutator, Hergert et al., Phys.
Rep. 621, 165 (2016)). That cut is exact here: [F_N, s] has no higher
part, and the projection drops the three-body parts anyway.

Only the inner bracket [F_N, s] is formed over all m spin orbitals, at
O(m^5). The two outer brackets, [H_N, s] and [[F_N, s], s], are needed
only where every index is one of the a active spin orbitals: their
operands are cut along the output axes and summed over the others, at
O(m^2 a^4 + m^3 a^2) instead of O(m^6). Every term is one matrix product
(``amplitudes.contract``). The same expansion on operator strings, every
string formed, and on full tensors are the test oracles of the tensors
and of the sigma_ext tensors that ``downfold`` masks out of the amplitude
arrays.
"""

from __future__ import annotations

import numpy as np

from .amplitudes import ClusterAmplitudes, contract
from .fermion import (ActiveSpace, SpaceError, check_finite, fock_matrix,
                      hf_energy, negligible)
from .integrals import SpinIntegralSet


def _sigma_ext(t: ClusterAmplitudes, space: ActiveSpace, m):
    """(0, X1, X2) of the anti-Hermitian sum t_k kappa_k over the external
    amplitudes, those with a virtual index outside the active space.

    The ``negligible`` external amplitudes are dropped as
    ``FermionOperator.prune`` drops them, NaN kept.
    """
    active = np.isin(t.virtual, space.active_virtual_spin)
    ext2 = ~(active[:, None] & active)[:, :, None, None]
    t1, t2 = (np.where(ext & ~negligible(x), x, 0.0)
              for x, ext in ((t.t1, ~active[:, None]), (t.t2, ext2)))
    o, v = slice(len(t.occupied)), slice(len(t.occupied), None)
    x1 = np.zeros((m, m))
    x2 = np.zeros((m, m, m, m))
    # the adjoint blocks are 0 - t, so a dropped entry stays +0.0
    x1[v, o] = t1
    x1[o, v] -= t1.T
    x2[v, v, o, o] = t2
    x2[o, o, v, v] -= t2.transpose(2, 3, 0, 1)
    return 0.0, x1, x2


def _integral_set(scalar, chi1, chi2) -> SpinIntegralSet:
    """Plain-form tensors as h1 = chi1, (pq|rs) = chi2[p,r,q,s] / 2."""
    return SpinIntegralSet(len(chi1), chi1,
                           0.5 * np.einsum("prqs->pqrs", chi2), scalar)


def _half(a, b, n, out=slice(None)):
    """The IMSRG(2) commutator terms with A on the left; n: the 0/1
    occupations of the reference.

    Each term of the rank <= 2 part of [A, B] is written once as a product
    A B, so that [A, B] = _half(A, B) - _half(B, A). A two-body slot of
    None is a zero tensor: the terms it multiplies are skipped. The one-
    and two-body parts are formed over the indices ``out`` alone: the
    operands are cut along the output axes and summed over the others in
    full. The zero-body part reads only the occupied/hole blocks.
    """
    _, a1, a2 = a
    _, b1, b2 = b
    h = 1.0 - n
    index = {"p": out, "o": np.flatnonzero(n), "h": np.flatnonzero(h)}

    def cut(x, axes):
        """x cut on each axis to the indices of its letter; ':' keeps all."""
        for k, c in enumerate(axes):
            if c != ":":
                x = x[(slice(None),) * k + (index[c],)]
        return x

    c0 = contract("pq,qp->", cut(a1, "o"), cut(b1, ":o"))
    c1 = cut(a1, "p") @ cut(b1, ":p")
    if b2 is None:
        return c0, c1, 0.0
    c1 = c1 + contract("rs,sprq->pq", np.subtract.outer(n, n) * a1,
                       cut(b2, ":p:p"))
    # the terms in z take (1 - P_pq)(1 - P_rs); each A1 term already has
    # one of the two antisymmetries, hence its factor 1/2
    # B2 is antisymmetric in its last pair: - A1_tr B2_pqts = B2_pqst A1_tr,
    # a product that needs no reordered copy of B2
    z = contract("pt,tqrs->pqrs", cut(a1, "p"), cut(b2, ":ppp"))
    z += contract("pqst,tr->pqrs", cut(b2, "ppp:"), cut(a1, ":p"))
    z *= 0.5
    c2 = 0.0
    if a2 is not None:
        c0 = c0 + 0.25 * contract("pqrs,rspq->", cut(a2, "oohh"),
                                  cut(b2, "hhoo"))
        w = np.multiply.outer(np.outer(n, n), h) \
            + np.multiply.outer(np.outer(h, h), n)
        c1 = c1 + 0.5 * contract("tprs,rstq->pq", cut(a2, ":p"),
                                 w[..., None] * cut(b2, ":::p"))
        z -= contract("uqts,tpur->pqrs", cut(a2, ":pop"), cut(b2, "op:p"))
        c2 = 0.5 * contract("pqtu,turs->pqrs",
                            cut(a2, "pp") * (h[:, None] - n), cut(b2, "::pp"))
    z = z - z.transpose(1, 0, 2, 3)
    return c0, c1, c2 + (z - z.transpose(0, 1, 3, 2))


def _bracket(a, b, n, out=slice(None)):
    """Zero-, one- and two-body parts of [A, B] for normal-ordered tensors,
    the one- and two-body parts over the indices ``out``."""
    return tuple(x - y for x, y in zip(_half(a, b, n, out),
                                       _half(b, a, n, out)))


def _reference(spin_ints, space: ActiveSpace):
    """Occupations of the reference and H_N = (E_HF, f, <pq||rs>)."""
    n = np.zeros(spin_ints.n_spin_orbitals)
    n[space.occupied_spin] = 1.0
    ref = sum(1 << p for p in space.occupied_spin)
    return n, (hf_energy(spin_ints, ref), fock_matrix(spin_ints, ref),
               spin_ints.antisymmetrized())


@np.errstate(over="ignore", invalid="ignore")
def _active_block(x, space: ActiveSpace) -> SpinIntegralSet:
    """Plain form of normal-ordered (X0, X1, X2) over the active spin
    orbitals, occupied first."""
    x0, x1, x2 = x
    o = slice(0, len(space.occupied_spin))
    chi1 = x1 - np.einsum("piqi->pq", x2[:, o, :, o])
    scalar = x0 - np.trace(x1[o, o]) \
        + 0.5 * np.einsum("ijij->", x2[o, o, o, o])
    check_finite("downfold overflowed: a dressed integral is inf or NaN",
                 scalar, chi1, x2)
    return _integral_set(float(scalar), chi1, x2)


@np.errstate(over="ignore", invalid="ignore")
def downfold(spin_ints, space: ActiveSpace,
             t: ClusterAmplitudes) -> SpinIntegralSet:
    """Full pipeline: external rotation, expansion, projection; SpaceError
    when ``t`` and ``space`` occupy different modes."""
    if list(t.occupied) != space.occupied_spin:
        raise SpaceError(f"amplitudes on occupied modes {list(t.occupied)}, "
                         f"active space on {space.occupied_spin}")
    n, h_n = _reference(spin_ints, space)
    act = space.active_spin
    sigma = _sigma_ext(t, space, spin_ints.n_spin_orbitals)
    f_n = (0.0, h_n[1], None)
    once = _bracket(h_n, sigma, n, act)
    twice = _bracket(_bracket(f_n, sigma, n), sigma, n, act)
    return _active_block([x + y + 0.5 * z for x, y, z in
                          zip(_restrict(h_n, act), once, twice)], space)


def _restrict(x, out):
    """(X0, X1, X2) with every index cut to ``out``."""
    return x[0], x[1][np.ix_(out, out)], x[2][np.ix_(out, out, out, out)]


def bare_restriction(spin_ints, space: ActiveSpace) -> SpinIntegralSet:
    """Active-space cut of the untransformed Hamiltonian (sigma_ext = 0)."""
    return _active_block(_restrict(_reference(spin_ints, space)[1],
                                   space.active_spin), space)
