"""Cluster amplitudes: MP2 closed forms and an iterative spin-orbital CCSD
solver with DIIS acceleration.

The reference is always the Hartree-Fock determinant of N electrons in
spin orbitals 0..N-1, and the solvers take N: every occupied block of an
axis is [:N] and every virtual block [N:]. Amplitudes are the solvers' own
dense arrays t1[a, i] and t2[a, b, i, j]; t2 is exactly antisymmetric in
(a, b) and in (i, j). Keys name global spin orbitals, (i, a) for a single
and (i, j, a, b) for a double, canonical when i < j and a < b. An inf or
NaN orbital energy, amplitude, residual or energy is a NonFiniteError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product

import numpy as np

from .fermion import (ConvergenceError, DataError, check_finite, fock_matrix,
                      hf_determinant)
from .integrals import SpinIntegralSet, data_lines

DENOMINATOR_FLOOR = 1e-8
CCSD_TOL = 1e-8
CCSD_MAX_ITER = 200
DIIS_SIZE = 6
# the blocks of the Fock matrix and of <pq||rs> that _residuals and
# correlation_energy read
F_BLOCKS = "oo ov vo vv"
G_BLOCKS = "oooo ooov oovo oovv ovoo ovov ovvo ovvv vovv vvoo vvvo vvvv"


class DegenerateReferenceError(DataError):
    """A perturbative energy denominator fell below the floor."""


def _canonical(nv, no):
    """Mask of the a < b, i < j entries of a t2[a, b, i, j] array."""
    return np.triu(np.ones((nv, nv), bool), 1)[:, :, None, None] \
        & np.triu(np.ones((no, no), bool), 1)


def _antisymmetric(t2):
    """t2 rebuilt from its a < b, i < j entries, exactly antisymmetric."""
    t2 = np.where(_canonical(*t2.shape[1:3]), t2, 0.0)
    t2 = t2 - t2.transpose(1, 0, 2, 3)
    return t2 - t2.transpose(0, 1, 3, 2)


@dataclass
class ClusterAmplitudes:
    """Singles t1[a, i] and antisymmetric doubles t2[a, b, i, j]: hole i at
    position i, particle a at a - N, N the length of an occupied axis."""

    t1: np.ndarray
    t2: np.ndarray

    @classmethod
    def empty(cls, n_electrons, n_modes):
        no, nv = n_electrons, n_modes - n_electrons
        return cls(np.zeros((nv, no)), np.zeros((nv, nv, no, no)))

    @property
    def occupied(self):
        return range(self.t1.shape[1])

    @property
    def virtual(self):
        return range(self.t1.shape[1], sum(self.t1.shape))

    def _slots(self, holes, particles):
        """Array positions of the particle modes, then of the hole modes."""
        roles = [(p, self.virtual, "virtual") for p in particles] \
            + [(p, self.occupied, "occupied") for p in holes]
        for p, modes, role in roles:
            if p not in modes:
                raise ValueError(f"index outside the {role} modes: {p}")
        return tuple(p - modes.start for p, modes, _ in roles)

    def set_t1(self, i, a, value):
        self.t1[self._slots((i,), (a,))] = value

    def set_t2(self, i, j, a, b, value):
        slots = self._slots((i, j), (a, b))
        if i == j or a == b:
            raise ValueError("doubles indices must be distinct pairs")
        a, b, i, j = slots
        self.t2[a, b, i, j] = self.t2[b, a, j, i] = value
        self.t2[b, a, i, j] = self.t2[a, b, j, i] = -value

    def get_t1(self, i, a):
        return float(self.t1[self._slots((i,), (a,))])

    def get_t2(self, i, j, a, b):
        return float(self.t2[self._slots((i, j), (a, b))])

    def items(self):
        """(key, value) of every single, then every canonical double, in
        key order, zeros included."""
        for (x, i), (y, a) in product(enumerate(self.occupied),
                                      enumerate(self.virtual)):
            yield (i, a), float(self.t1[y, x])
        for (x, i), (w, j) in combinations(enumerate(self.occupied), 2):
            for (y, a), (z, b) in combinations(enumerate(self.virtual), 2):
                yield (i, j, a, b), float(self.t2[y, z, x, w])


def spin_orbital_label(mode):
    return f"{mode // 2 + 1}{'a' if mode % 2 == 0 else 'b'}"


def excitation_label(key):
    if len(key) == 2:
        i, a = key
        return f"{spin_orbital_label(i)} -> {spin_orbital_label(a)}"
    i, j, a, b = key
    return (f"{spin_orbital_label(i)} {spin_orbital_label(j)}"
            f" -> {spin_orbital_label(a)} {spin_orbital_label(b)}")


def check_top(k):
    """ValueError unless k, a ``top_amplitudes`` count, is at least 1."""
    if k < 1:
        raise ValueError("k must be >= 1")


def top_amplitudes(t: ClusterAmplitudes, k: int):
    """The k largest-magnitude amplitudes as (label, |amplitude|) pairs,
    ties by label; only those at or above the k-th (all, if one is NaN)
    are labelled and sorted."""
    check_top(k)
    items = list(t.items())
    size = np.abs([v for _, v in items])
    if k < len(items) and not np.isnan(size).any():
        cut = np.partition(size, -k)[-k]
        items = [items[i] for i in np.flatnonzero(size >= cut)]
    entries = [(excitation_label(key), abs(v)) for key, v in items]
    entries.sort(key=lambda e: (-e[1], e[0]))
    return entries[:k]


def _denominators(eps, n_electrons):
    """e_i - e_a and e_i + e_j - e_a - e_b from the orbital energies."""
    check_finite("an orbital energy is inf or NaN", eps)
    eps_o, eps_v = eps[:n_electrons], eps[n_electrons:]
    e_ai = eps_o[None, :] - eps_v[:, None]
    e_abij = (eps_o[None, None, :, None] + eps_o[None, None, None, :]
              - eps_v[:, None, None, None] - eps_v[None, :, None, None])
    check_finite("an energy denominator is inf or NaN", e_abij)
    bad = np.argwhere(np.abs(e_abij) < DENOMINATOR_FLOOR)
    if bad.size:
        a, b, i, j = bad[0]
        raise DegenerateReferenceError(
            "denominator below floor for excitation "
            f"({i},{j}) -> ({n_electrons + a},{n_electrons + b}): "
            f"{e_abij[a, b, i, j]:.3e}")
    return e_ai, e_abij


def _blocks(x, n_electrons, keys, read=np.ndarray.__getitem__):
    """Contiguous blocks of x over the occupied ('o') and the virtual ('v')
    spin orbitals, by key: 'ov' is read(x, index) for the index of
    x[:N, N:]."""
    modes = {"o": slice(n_electrons), "v": slice(n_electrons, None)}
    return {k: np.ascontiguousarray(read(x, tuple(modes[c] for c in k)))
            for k in keys.split()}


@np.errstate(over="ignore", invalid="ignore")
def mp2_amplitudes(spin_ints, n_electrons):
    """t2_abij = <ab||ij> / (e_i + e_j - e_a - e_b); singles are zero."""
    eps = np.diag(fock_matrix(spin_ints, hf_determinant(n_electrons)))
    e_ai, e_abij = _denominators(eps, n_electrons)
    o, v = slice(n_electrons), slice(n_electrons, None)
    t2 = spin_ints.antisymmetrized((v, v, o, o)) / e_abij
    check_finite("an MP2 amplitude is inf or NaN", t2)
    return ClusterAmplitudes(np.zeros(e_ai.shape), _antisymmetric(t2))


@lru_cache(maxsize=None)
def _contraction_plan(subscripts):
    """Axis orders of x and y, free-axis count of x and output permutation
    of a pairwise 'ab,bc->ac' contraction; ValueError unless every index is
    summed over both operands or in one operand and the output, once each."""
    operands, arrow, out = subscripts.partition("->")
    x, comma, y = operands.partition(",")
    summed = [i for i in y if i in x]
    free = [i for i in x + y if i not in summed]
    if not (arrow and comma) or "," in y or sorted(free) != sorted(out) \
            or any(len(set(s)) != len(s) for s in (x, y, out)):
        raise ValueError(f"not a pairwise contraction: {subscripts!r}")
    n = len(x) - len(summed)
    return ([x.index(i) for i in free[:n] + summed],
            [y.index(i) for i in summed + free[n:]], n,
            [free.index(i) for i in out])


def contract(subscripts, x, y):
    """np.einsum(subscripts, x, y) as one matrix product over the summed
    indices, without einsum's per-call parsing; an operand whose summed
    axes trail (x) or lead (y), in their order in y, is not copied."""
    x_axes, y_axes, n, perm = _contraction_plan(subscripts)
    x, y = x.transpose(x_axes), y.transpose(y_axes)
    rows, cols, k = x.shape[:n], y.shape[x.ndim - n:], math.prod(x.shape[n:])
    product = x.reshape(math.prod(rows), k) @ y.reshape(k, math.prod(cols))
    return product.reshape(rows + cols).transpose(perm)


def _tau(t1, t2, weight=1.0):
    """t_ijab + weight (t_ia t_jb - t_ib t_ja), laid out as t2."""
    tt = contract("ai,bj->abij", t1, t1)
    return t2 + weight * (tt - tt.transpose(0, 1, 3, 2))


def correlation_energy(f, g, t1, t2):
    """f_ia t_ia + 1/4 <ij||ab> tau_ijab; f, g: _blocks."""
    return float(contract("ia,ai->", f["ov"], t1)
                 + 0.25 * contract("ijab,abij->", g["oovv"], _tau(t1, t2)))


@np.errstate(over="ignore", invalid="ignore")
def mp2_energy(spin_ints, t: ClusterAmplitudes):
    """Sum over canonical doubles, i < j and a < b, of t_ijab * <ij||ab>."""
    o, v = slice(len(t.occupied)), slice(len(t.occupied), None)
    g = spin_ints.antisymmetrized((o, o, v, v))
    upper = _canonical(*t.t1.shape)
    energy = float(np.sum(t.t2[upper] * g.transpose(2, 3, 0, 1)[upper]))
    check_finite("the MP2 energy is inf or NaN", energy)
    return energy


def _residuals(t1, t2, f, g):
    """Singles and doubles CCSD residuals from the intermediates of Stanton
    and Gauss, J. Chem. Phys. 94, 4334 (1991), each a pairwise contraction;
    f, g: _blocks.

    F_ae and F_mi keep the diagonal of the Fock matrix, so the residuals are
    the full projections <ai|H e^T|0> and <abij|H e^T|0>. W_abef, a v^4
    array, is never formed: its parts act on tau one by one.
    """
    c = contract

    def p_ab(x):
        return x - x.transpose(1, 0, 2, 3)

    def p_ij(x):
        return x - x.transpose(0, 1, 3, 2)

    f_ov = f["ov"]
    g_oovv = g["oovv"]
    tau = _tau(t1, t2)
    tau_tilde = _tau(t1, t2, 0.5)

    f_me = f_ov + c("fn,mnef->me", t1, g_oovv)
    f_ae = (f["vv"] - 0.5 * c("me,am->ae", f_ov, t1)
            + c("fm,mafe->ae", t1, g["ovvv"])
            - 0.5 * c("afmn,mnef->ae", tau_tilde, g_oovv))
    f_mi = (f["oo"] + 0.5 * c("ei,me->mi", t1, f_ov)
            + c("en,mnie->mi", t1, g["ooov"])
            + 0.5 * c("efin,mnef->mi", tau_tilde, g_oovv))
    # the 1/8 tau <mn||ef> tau part of 1/2 tau W_abef is folded in here by
    # doubling the 1/4 of W_mnij
    w_mnij = (g["oooo"] + p_ij(c("ej,mnie->mnij", t1, g["ooov"]))
              + 0.5 * c("efij,mnef->mnij", tau, g_oovv))
    w_mbej = (g["ovvo"] + c("mbef,fj->mbej", g["ovvv"], t1)
              - c("bn,mnej->mbej", t1, g["oovo"]))
    w_mbej -= c("fbjn,mnef->mbej",
                0.5 * t2 + c("fj,bn->fbjn", t1, t1), g_oovv)

    r1 = (f["vo"] + c("ei,ae->ai", t1, f_ae) - c("am,mi->ai", t1, f_mi)
          + c("aeim,me->ai", t2, f_me) - c("fn,naif->ai", t1, g["ovov"])
          - 0.5 * c("efim,maef->ai", t2, g["ovvv"])
          - 0.5 * c("aemn,nmei->ai", t2, g["oovo"]))

    z = p_ab(c("aeij,be->abij", t2, f_ae - 0.5 * c("bm,me->be", t1, f_me)))
    z -= p_ij(c("abim,mj->abij", t2, f_mi + 0.5 * c("ej,me->mj", t1, f_me)))
    z += 0.5 * c("abmn,mnij->abij", tau, w_mnij)
    # 1/2 tau W_abef, less its 1/8 tau <mn||ef> tau part (in W_mnij)
    z += 0.5 * c("abef,efij->abij", g["vvvv"], tau)
    z -= p_ab(0.5 * c("bm,amij->abij", t1,
                      c("amef,efij->amij", g["vovv"], tau)))
    x = c("aeim,mbej->abij", t2, w_mbej) \
        - c("am,mbij->abij", t1, c("ei,mbej->mbij", t1, g["ovvo"]))
    z += p_ij(p_ab(x))
    z += p_ij(c("ei,abej->abij", t1, g["vvvo"]))
    z -= p_ab(c("am,mbij->abij", t1, g["ovoo"]))
    return r1, g["vvoo"] + z


class _Diis:
    """Pulay mixing over flattened amplitude vectors."""

    def __init__(self):
        self.vecs = []
        self.errs = []

    def update(self, vec, err):
        self.vecs.append(vec)
        self.errs.append(err)
        if len(self.vecs) > DIIS_SIZE:
            self.vecs.pop(0)
            self.errs.pop(0)
        n = len(self.vecs)
        if n < 2:
            return vec
        errs = np.array(self.errs)
        b = -np.ones((n + 1, n + 1))
        b[n, n] = 0.0
        b[:n, :n] = errs @ errs.T
        rhs = np.zeros(n + 1)
        rhs[n] = -1.0
        try:
            coeffs = np.linalg.solve(b, rhs)[:n]
        except np.linalg.LinAlgError:
            return vec
        return sum(c * v for c, v in zip(coeffs, self.vecs))


@np.errstate(over="ignore", invalid="ignore")
def ccsd_solve(spin_ints, n_electrons):
    """Solve the projected CCSD equations; returns (amplitudes, E_corr)."""
    f = fock_matrix(spin_ints, hf_determinant(n_electrons))
    eps = np.diag(f)
    f = _blocks(f, n_electrons, F_BLOCKS)
    g = _blocks(spin_ints, n_electrons, G_BLOCKS,
                SpinIntegralSet.antisymmetrized)
    e_ai, e_abij = _denominators(eps, n_electrons)

    t1 = np.zeros(e_ai.shape)
    t2 = g["vvoo"] / e_abij
    diis = _Diis()
    for _ in range(CCSD_MAX_ITER):
        r1, r2 = _residuals(t1, t2, f, g)
        norms = np.abs(r1).max(initial=0.0), np.abs(r2).max(initial=0.0)
        check_finite("a CCSD residual is inf or NaN", norms)
        res_norm = max(norms)
        if res_norm <= CCSD_TOL:
            ecorr = correlation_energy(f, g, t1, t2)
            check_finite("the CCSD energy is inf or NaN", ecorr)
            return ClusterAmplitudes(t1, _antisymmetric(t2)), ecorr
        d1, d2 = r1 / e_ai, r2 / e_abij
        step = np.concatenate([(t1 + d1).ravel(), (t2 + d2).ravel()])
        err = np.concatenate([d1.ravel(), d2.ravel()])
        mixed = diis.update(step, err)
        t1 = mixed[:t1.size].reshape(t1.shape)
        t2 = mixed[t1.size:].reshape(t2.shape)
    raise ConvergenceError(
        f"CCSD not converged after {CCSD_MAX_ITER} iterations; "
        f"residual max-norm {res_norm:.3e}")


def save_amplitudes(t: ClusterAmplitudes, path):
    with open(path, "w") as fh:
        for key, v in t.items():
            if v != 0.0:
                fh.write(f"T{len(key) // 2} {' '.join(map(str, key))} "
                         f"{v:.16e}\n")


def load_amplitudes(path, n_electrons, n_modes) -> ClusterAmplitudes:
    """Read a ``save_amplitudes`` file; ValueError names ``path:line``.

    Each line is ``T1 i a value`` or ``T2 i j a b value`` with i, j below
    ``n_electrons``, a, b from there below ``n_modes`` and a finite value;
    a key may appear once (a doubles key up to the order of its pairs).
    """
    t = ClusterAmplitudes.empty(n_electrons, n_modes)
    seen = set()
    with open(path) as fh:
        for lineno, line in data_lines(fh):
            try:
                _load_line(t, line.split(), seen)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}: {line!r}") from None
    return t


def _load_line(t, parts, seen):
    n_idx = {"T1": 2, "T2": 4}.get(parts[0])
    if n_idx is None or len(parts) != n_idx + 2:
        raise ValueError("bad amplitude line")
    idx = [int(tok) for tok in parts[1:-1]]
    value = float(parts[-1])
    if not np.isfinite(value):
        raise ValueError("non-finite amplitude")
    half = n_idx // 2
    (t.set_t1 if n_idx == 2 else t.set_t2)(*idx, value)
    key = (frozenset(idx[:half]), frozenset(idx[half:]))
    if key in seen:
        raise ValueError("duplicate amplitude")
    seen.add(key)
