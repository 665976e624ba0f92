"""Cluster amplitudes: MP2 closed forms and an iterative spin-orbital CCSD
solver with DIIS acceleration.

Amplitudes are the solvers' own dense arrays, t1[a, i] and t2[a, b, i, j],
over the occupied and virtual spin orbitals of the reference; t2 is exactly
antisymmetric in (a, b) and in (i, j). Keys name global spin orbitals,
(i, a) for a single and (i, j, a, b) for a double, canonical when i < j
and a < b.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product

import numpy as np

from .fermion import fock_matrix

DENOMINATOR_FLOOR = 1e-8
CCSD_TOL = 1e-8
CCSD_MAX_ITER = 200
DIIS_SIZE = 6


@lru_cache(maxsize=None)
def _contraction_path(subscripts, shapes):
    """Optimal pairwise contraction order, found on shape-only stand-ins."""
    stand_ins = [np.broadcast_to(0.0, shape) for shape in shapes]
    return np.einsum_path(subscripts, *stand_ins, optimize="optimal")[0]


def einsum(subscripts, *operands):
    """np.einsum; terms of 3 or more operands follow a cached path."""
    if len(operands) < 3:
        return np.einsum(subscripts, *operands)
    path = _contraction_path(subscripts, tuple(x.shape for x in operands))
    return np.einsum(subscripts, *operands, optimize=path)


class DegenerateReferenceError(Exception):
    """A perturbative energy denominator fell below the floor."""


class ConvergenceError(Exception):
    """CCSD iterations did not reach the residual tolerance."""


def _antisymmetric(t2):
    """t2 rebuilt from its a < b, i < j entries, exactly antisymmetric."""
    nv, _, no, _ = t2.shape
    upper = np.triu(np.ones((nv, nv), bool), 1)[:, :, None, None] \
        & np.triu(np.ones((no, no), bool), 1)
    t2 = np.where(upper, t2, 0.0)
    t2 = t2 - t2.transpose(1, 0, 2, 3)
    return t2 - t2.transpose(0, 1, 3, 2)


@dataclass
class ClusterAmplitudes:
    """Singles t1[a, i] and antisymmetric doubles t2[a, b, i, j].

    Rows of t1 and the first two axes of t2 index ``virtual``; the other
    axes index ``occupied``. Both mode tuples are ascending.
    """

    occupied: tuple
    virtual: tuple
    t1: np.ndarray
    t2: np.ndarray

    @classmethod
    def empty(cls, occupied, virtual):
        occupied, virtual = tuple(sorted(occupied)), tuple(sorted(virtual))
        no, nv = len(occupied), len(virtual)
        return cls(occupied, virtual, np.zeros((nv, no)),
                   np.zeros((nv, nv, no, no)))

    def _slots(self, holes, particles):
        """Array positions of the particle modes, then of the hole modes."""
        roles = [(p, self.virtual, "virtual") for p in particles] \
            + [(p, self.occupied, "occupied") for p in holes]
        for p, modes, role in roles:
            if p not in modes:
                raise ValueError(f"index outside the {role} modes: {p}")
        return tuple(modes.index(p) for p, modes, _ in roles)

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


def top_amplitudes(t: ClusterAmplitudes, k: int):
    """The k largest-magnitude amplitudes as (label, |amplitude|) pairs."""
    if k < 1:
        raise ValueError("k must be >= 1")
    entries = [(excitation_label(key), abs(v)) for key, v in t.items()]
    entries.sort(key=lambda e: (-e[1], e[0]))
    return entries[:k]


def _occ_virt(spin_ints, ref):
    m = spin_ints.n_spin_orbitals
    occ = [p for p in range(m) if (ref >> p) & 1]
    virt = [p for p in range(m) if not (ref >> p) & 1]
    return occ, virt


def _denominators(eps_o, eps_v, occ, virt):
    e_ai = eps_o[None, :] - eps_v[:, None]
    e_abij = (eps_o[None, None, :, None] + eps_o[None, None, None, :]
              - eps_v[:, None, None, None] - eps_v[None, :, None, None])
    bad = np.argwhere(np.abs(e_abij) < DENOMINATOR_FLOOR)
    if bad.size:
        a, b, i, j = bad[0]
        raise DegenerateReferenceError(
            "denominator below floor for excitation "
            f"({occ[i]},{occ[j]}) -> ({virt[a]},{virt[b]}): "
            f"{e_abij[a, b, i, j]:.3e}")
    return e_ai, e_abij


def mp2_amplitudes(spin_ints, ref):
    """t2_ijab = <ij||ab> / (e_i + e_j - e_a - e_b); singles are zero."""
    occ, virt = _occ_virt(spin_ints, ref)
    f = fock_matrix(spin_ints, ref)
    g = spin_ints.antisymmetrized()
    eps = np.diag(f)
    _, e_abij = _denominators(eps[occ], eps[virt], occ, virt)
    vten = g[np.ix_(virt, virt, occ, occ)]
    return ClusterAmplitudes(tuple(occ), tuple(virt),
                             np.zeros((len(virt), len(occ))),
                             _antisymmetric(vten / e_abij))


def correlation_energy(f, g, t1, t2, o, v):
    e = 1.0 * einsum("ia,ai", f[o, v], t1)
    e += 0.25 * einsum("jiab,abji", g[o, o, v, v], t2)
    e += -0.5 * einsum("jiab,ai,bj", g[o, o, v, v], t1, t1)
    return float(e)


def mp2_energy(spin_ints, t: ClusterAmplitudes):
    """Sum over canonical doubles of t_ijab * <ij||ab>."""
    g = spin_ints.antisymmetrized()
    return sum(v * g[key] for key, v in t.items() if len(key) == 4)


def _singles_residual(t1, t2, f, g, o, v):
    r = 1.0 * einsum("em->em", f[v, o])
    r += -1.0 * einsum("im,ei->em", f[o, o], t1)
    r += 1.0 * einsum("ea,am->em", f[v, v], t1)
    r += -1.0 * einsum("ia,aemi->em", f[o, v], t2)
    r += -1.0 * einsum("ia,am,ei->em", f[o, v], t1, t1)
    r += 1.0 * einsum("ieam,ai->em", g[o, v, v, o], t1)
    r += -0.5 * einsum("jiam,aeji->em", g[o, o, v, o], t2)
    r += -0.5 * einsum("ieab,abmi->em", g[o, v, v, v], t2)
    r += 1.0 * einsum("jiam,ai,ej->em", g[o, o, v, o], t1, t1)
    r += 1.0 * einsum("ieab,ai,bm->em", g[o, v, v, v], t1, t1)
    r += 1.0 * einsum("jiab,ai,bemj->em", g[o, o, v, v], t1, t2)
    r += 0.5 * einsum("jiab,am,beji->em", g[o, o, v, v], t1, t2)
    r += 0.5 * einsum("jiab,ei,abmj->em", g[o, o, v, v], t1, t2)
    r += 1.0 * einsum("jiab,ai,bm,ej->em", g[o, o, v, v], t1, t1, t1)
    return r


def _doubles_residual(t1, t2, f, g, o, v):
    def perm_mn(x):
        return x - x.transpose(0, 1, 3, 2)

    def perm_ef(x):
        return x - x.transpose(1, 0, 2, 3)

    def perm_both(x):
        return perm_mn(perm_ef(x))

    r = perm_mn(-1.0 * einsum("in,efmi->efmn", f[o, o], t2))
    r += perm_ef(1.0 * einsum("ea,afmn->efmn", f[v, v], t2))
    r += perm_mn(-1.0 * einsum("ia,an,efmi->efmn", f[o, v], t1, t2))
    r += perm_ef(-1.0 * einsum("ia,ei,afmn->efmn", f[o, v], t1, t2))
    r += 1.0 * einsum("efmn->efmn", g[v, v, o, o])
    r += perm_ef(1.0 * einsum("iemn,fi->efmn", g[o, v, o, o], t1))
    r += perm_mn(1.0 * einsum("efan,am->efmn", g[v, v, v, o], t1))
    r += 0.5 * einsum("jimn,efji->efmn", g[o, o, o, o], t2)
    r += perm_both(1.0 * einsum("iean,afmi->efmn", g[o, v, v, o], t2))
    r += 0.5 * einsum("efab,abmn->efmn", g[v, v, v, v], t2)
    r += -1.0 * einsum("jimn,ei,fj->efmn", g[o, o, o, o], t1, t1)
    r += perm_both(1.0 * einsum("iean,am,fi->efmn", g[o, v, v, o], t1, t1))
    r += -1.0 * einsum("efab,an,bm->efmn", g[v, v, v, v], t1, t1)
    r += perm_mn(1.0 * einsum("jian,ai,efmj->efmn", g[o, o, v, o], t1, t2))
    r += perm_mn(0.5 * einsum("jian,am,efji->efmn", g[o, o, v, o], t1, t2))
    r += perm_both(-1.0 * einsum("jian,ei,afmj->efmn", g[o, o, v, o], t1, t2))
    r += perm_ef(1.0 * einsum("ieab,ai,bfmn->efmn", g[o, v, v, v], t1, t2))
    r += perm_both(-1.0 * einsum("ieab,an,bfmi->efmn", g[o, v, v, v], t1, t2))
    r += perm_ef(0.5 * einsum("ieab,fi,abmn->efmn", g[o, v, v, v], t1, t2))
    r += perm_mn(-0.5 * einsum("jiab,abni,efmj->efmn", g[o, o, v, v], t2, t2))
    r += 0.25 * einsum("jiab,abmn,efji->efmn", g[o, o, v, v], t2, t2)
    r += -0.5 * einsum("jiab,aeji,bfmn->efmn", g[o, o, v, v], t2, t2)
    r += perm_mn(1.0 * einsum("jiab,aeni,bfmj->efmn", g[o, o, v, v], t2, t2))
    r += -0.5 * einsum("jiab,aemn,bfji->efmn", g[o, o, v, v], t2, t2)
    r += perm_mn(-1.0 * einsum("jian,am,ei,fj->efmn", g[o, o, v, o],
                               t1, t1, t1))
    r += perm_ef(-1.0 * einsum("ieab,an,bm,fi->efmn", g[o, v, v, v],
                               t1, t1, t1))
    r += perm_mn(1.0 * einsum("jiab,ai,bn,efmj->efmn", g[o, o, v, v],
                              t1, t1, t2))
    r += perm_ef(1.0 * einsum("jiab,ai,ej,bfmn->efmn", g[o, o, v, v],
                              t1, t1, t2))
    r += -0.5 * einsum("jiab,an,bm,efji->efmn", g[o, o, v, v], t1, t1, t2)
    r += perm_both(1.0 * einsum("jiab,an,ei,bfmj->efmn", g[o, o, v, v],
                                t1, t1, t2))
    r += -0.5 * einsum("jiab,ei,fj,abmn->efmn", g[o, o, v, v], t1, t1, t2)
    r += 1.0 * einsum("jiab,an,bm,ei,fj->efmn", g[o, o, v, v],
                      t1, t1, t1, t1)
    return r


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
        b = -np.ones((n + 1, n + 1))
        b[n, n] = 0.0
        for i in range(n):
            for j in range(n):
                b[i, j] = np.dot(self.errs[i], self.errs[j])
        rhs = np.zeros(n + 1)
        rhs[n] = -1.0
        try:
            coeffs = np.linalg.solve(b, rhs)[:n]
        except np.linalg.LinAlgError:
            return vec
        return sum(c * v for c, v in zip(coeffs, self.vecs))


def ccsd_solve(spin_ints, ref):
    """Solve the projected CCSD equations; returns (amplitudes, E_corr)."""
    occ, virt = _occ_virt(spin_ints, ref)
    f = fock_matrix(spin_ints, ref)
    g = spin_ints.antisymmetrized()
    eps = np.diag(f)
    no, nv = len(occ), len(virt)
    order = occ + virt
    f = f[np.ix_(order, order)]
    g = g[np.ix_(order, order, order, order)]
    o = slice(0, no)
    v = slice(no, no + nv)
    e_ai, e_abij = _denominators(eps[occ], eps[virt], occ, virt)

    t1 = np.zeros((nv, no))
    t2 = g[v, v, o, o] / e_abij
    diis = _Diis()
    for _ in range(CCSD_MAX_ITER):
        r1 = _singles_residual(t1, t2, f, g, o, v)
        r2 = _doubles_residual(t1, t2, f, g, o, v)
        res_norm = max(np.abs(r1).max(initial=0.0),
                       np.abs(r2).max(initial=0.0))
        if res_norm <= CCSD_TOL:
            ecorr = correlation_energy(f, g, t1, t2, o, v)
            return ClusterAmplitudes(tuple(occ), tuple(virt), t1,
                                     _antisymmetric(t2)), ecorr
        t1 = t1 + r1 / e_ai
        t2 = t2 + r2 / e_abij
        step = np.concatenate([t1.ravel(), t2.ravel()])
        err = np.concatenate([(r1 / e_ai).ravel(), (r2 / e_abij).ravel()])
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


def load_amplitudes(path, occupied, virtual) -> ClusterAmplitudes:
    """Read a ``save_amplitudes`` file; ValueError names ``path:line``.

    Each line is ``T1 i a value`` or ``T2 i j a b value`` with i, j in
    ``occupied``, a, b in ``virtual`` and a finite value; a key may appear
    once (a doubles key up to the order of its pairs).
    """
    t = ClusterAmplitudes.empty(occupied, virtual)
    seen = set()
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
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
