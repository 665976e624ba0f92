"""Downfolded effective Hamiltonians in a reduced active space.

The external cluster rotation is folded in through the truncated
similarity transform  H + [H_N, s] + 1/2 [[F_N, s], s]  with s the
anti-Hermitian external cluster operator (Bauman et al., J. Chem. Phys.
151, 014107 (2019)). The result is cut to one- and two-body parts with all
indices active and returned as a SpinIntegralSet over the compact active
spin orbitals.

``downfold`` works on tensors (scalar, X1, X2), normal ordered relative to
the Hartree-Fock reference with X2 antisymmetric; each commutator keeps
its zero-, one- and two-body parts (the IMSRG(2) commutator, Hergert et
al., Phys. Rep. 621, 165 (2016)). That cut is exact here: [F_N, s] has no
higher part, and the projection drops the three-body parts anyway.
The same expansion on operator strings, every string formed, is the test
oracle of the tensors and of the sigma_ext tensors that ``downfold`` masks
out of the amplitude arrays.
"""

from __future__ import annotations

import numpy as np

from .amplitudes import ClusterAmplitudes
from .fermion import (PRUNE_THRESHOLD, ActiveSpace, NonFiniteError,
                      fock_matrix, hf_energy)
from .integrals import SpinIntegralSet


def _sigma_ext(t: ClusterAmplitudes, space: ActiveSpace, m):
    """(0, X1, X2) of the anti-Hermitian sum t_k kappa_k over the external
    amplitudes, those with a virtual index outside the active space.

    The external amplitudes below PRUNE_THRESHOLD are dropped as
    ``FermionOperator.prune`` drops them, NaN kept.
    """
    active = np.isin(t.virtual, space.active_virtual_spin)
    ext1 = ~active[:, None]
    ext2 = ~(active[:, None] & active)[:, :, None, None]

    def kept(x, ext):
        return np.where(ext & ~(np.abs(x) <= PRUNE_THRESHOLD), x, 0.0)

    occ, virt = t.occupied, t.virtual
    t1, t2 = kept(t.t1, ext1), kept(t.t2, ext2)
    x1 = np.zeros((m, m))
    x2 = np.zeros((m, m, m, m))
    # the adjoint blocks are 0 - t, so a dropped entry stays +0.0
    x1[np.ix_(virt, occ)] = t1
    x1[np.ix_(occ, virt)] -= t1.T
    x2[np.ix_(virt, virt, occ, occ)] = t2
    x2[np.ix_(occ, occ, virt, virt)] -= t2.transpose(2, 3, 0, 1)
    return 0.0, x1, x2


def _integral_set(scalar, chi1, chi2) -> SpinIntegralSet:
    """Plain-form tensors as h1 = chi1, (pq|rs) = chi2[p,r,q,s] / 2."""
    return SpinIntegralSet(len(chi1), chi1,
                           0.5 * np.einsum("prqs->pqrs", chi2), scalar)


def _half(a, b, n):
    """The IMSRG(2) commutator terms with A on the left; n: occupations.

    Each term of the rank <= 2 part of [A, B] is written once as a product
    A B, so that [A, B] = _half(A, B) - _half(B, A). A two-body slot of
    None is a zero tensor: the terms it multiplies are skipped.
    """
    _, a1, a2 = a
    _, b1, b2 = b
    h = 1.0 - n
    nn = np.subtract.outer(n, n)

    def e(*args):
        return np.einsum(*args, optimize=True)

    c0 = e("p,pq,qp", n, a1, b1)
    c1 = a1 @ b1
    if b2 is None:
        return c0, c1, 0.0
    c1 = c1 + e("rs,sprq->pq", nn * a1, b2)
    # the terms in z take (1 - P_pq)(1 - P_rs); each A1 term already has
    # one of the two antisymmetries, hence its factor 1/2
    z = 0.5 * (e("pt,tqrs->pqrs", a1, b2) - e("tr,pqts->pqrs", a1, b2))
    c2 = 0.0
    if a2 is not None:
        c0 = c0 + 0.25 * e("p,q,r,s,pqrs,rspq", n, n, h, h, a2, b2)
        c1 = c1 + 0.5 * e("rst,tprs,rstq->pq",
                          np.multiply.outer(np.outer(n, n), h)
                          + np.multiply.outer(np.outer(h, h), n), a2, b2)
        z = z - e("t,uqts,tpur->pqrs", n, a2, b2)
        c2 = 0.5 * e("pqtu,tu,turs->pqrs", a2, 1.0 - n[:, None] - n, b2)
    z = z - z.transpose(1, 0, 2, 3)
    return c0, c1, c2 + (z - z.transpose(0, 1, 3, 2))


def _bracket(a, b, n):
    """Zero-, one- and two-body parts of [A, B] for normal-ordered tensors."""
    return tuple(x - y for x, y in zip(_half(a, b, n), _half(b, a, n)))


def _reference(spin_ints, space: ActiveSpace):
    """Occupations of the reference and H_N = (E_HF, f, <pq||rs>)."""
    n = np.zeros(spin_ints.n_spin_orbitals)
    n[space.occupied_spin] = 1.0
    ref = sum(1 << p for p in space.occupied_spin)
    return n, (hf_energy(spin_ints, ref), fock_matrix(spin_ints, ref),
               spin_ints.antisymmetrized())


@np.errstate(over="ignore", invalid="ignore")
def _active_block(x, space: ActiveSpace) -> SpinIntegralSet:
    """Active part of normal-ordered (X0, X1, X2), in plain form."""
    x0, x1, x2 = x
    act = space.active_spin
    o = slice(0, len(space.occupied_spin))
    x1 = x1[np.ix_(act, act)]
    x2 = x2[np.ix_(act, act, act, act)]
    chi1 = x1 - np.einsum("piqi->pq", x2[:, o, :, o])
    scalar = x0 - np.trace(x1[o, o]) \
        + 0.5 * np.einsum("ijij->", x2[o, o, o, o])
    if not (np.isfinite(scalar) and np.isfinite(chi1).all()
            and np.isfinite(x2).all()):
        raise NonFiniteError(
            "downfold overflowed: a dressed integral is inf or NaN")
    return _integral_set(float(scalar), chi1, x2)


@np.errstate(over="ignore", invalid="ignore")
def downfold(spin_ints, space: ActiveSpace,
             t: ClusterAmplitudes) -> SpinIntegralSet:
    """Full pipeline: external rotation, expansion, projection."""
    n, h_n = _reference(spin_ints, space)
    sigma = _sigma_ext(t, space, spin_ints.n_spin_orbitals)
    f_n = (0.0, h_n[1], None)
    once = _bracket(h_n, sigma, n)
    twice = _bracket(_bracket(f_n, sigma, n), sigma, n)
    return _active_block(
        [x + y + 0.5 * z for x, y, z in zip(h_n, once, twice)], space)


def bare_restriction(spin_ints, space: ActiveSpace) -> SpinIntegralSet:
    """Active-space cut of the untransformed Hamiltonian (sigma_ext = 0)."""
    return _active_block(_reference(spin_ints, space)[1], space)
