"""Cluster amplitudes: MP2 closed forms, an iterative spin-orbital CCSD
solver with DIIS acceleration, and internal/external partitioning.

Amplitudes are stored sparsely over global spin-orbital indices with the
antisymmetric doubles kept canonical (i < j, a < b); expansion to other
index orders carries the transposition sign.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .fermion import ActiveSpace, fock_matrix

einsum = np.einsum

DENOMINATOR_FLOOR = 1e-8
CCSD_TOL = 1e-8
CCSD_MAX_ITER = 200
DIIS_SIZE = 6


class DegenerateReferenceError(Exception):
    """A perturbative energy denominator fell below the floor."""


class ConvergenceError(Exception):
    """CCSD iterations did not reach the residual tolerance."""


def _canonical_double(i, j, a, b, value):
    sign = 1.0
    if i > j:
        i, j = j, i
        sign = -sign
    if a > b:
        a, b = b, a
        sign = -sign
    return (i, j, a, b), sign * value


@dataclass
class ClusterAmplitudes:
    """Singles t_ia and antisymmetrized doubles t_ijab over spin orbitals."""

    occupied: tuple
    virtual: tuple
    t1: dict = field(default_factory=dict)
    t2: dict = field(default_factory=dict)

    @classmethod
    def empty(cls, occupied, virtual):
        return cls(tuple(occupied), tuple(virtual))

    def set_t1(self, i, a, value):
        self.t1[(i, a)] = value

    def set_t2(self, i, j, a, b, value):
        if i == j or a == b:
            raise ValueError("doubles indices must be distinct pairs")
        key, v = _canonical_double(i, j, a, b, value)
        self.t2[key] = v

    def get_t1(self, i, a):
        return self.t1.get((i, a), 0.0)

    def get_t2(self, i, j, a, b):
        if i == j or a == b:
            return 0.0
        key, sign = _canonical_double(i, j, a, b, 1.0)
        return sign * self.t2.get(key, 0.0)

    def all_singles_keys(self):
        return [(i, a) for i in self.occupied for a in self.virtual]

    def all_doubles_keys(self):
        return [(i, j, a, b)
                for i, j in combinations(self.occupied, 2)
                for a, b in combinations(self.virtual, 2)]

    def max_abs(self):
        vals = list(self.t1.values()) + list(self.t2.values())
        return max(map(abs, vals), default=0.0)


@dataclass
class AmplitudePartition:
    internal: ClusterAmplitudes
    external: ClusterAmplitudes


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
    entries = [(excitation_label(key), abs(t.get_t1(*key)))
               for key in t.all_singles_keys()]
    entries += [(excitation_label(key), abs(t.get_t2(*key)))
                for key in t.all_doubles_keys()]
    entries.sort(key=lambda e: (-e[1], e[0]))
    return entries[:k]


def _occ_virt(spin_ints, ref):
    m = spin_ints.n_spin_orbitals
    occ = [p for p in range(m) if (ref >> p) & 1]
    virt = [p for p in range(m) if not (ref >> p) & 1]
    return occ, virt


def _denominators(eps_o, eps_v, floor, occ, virt):
    e_ai = eps_o[None, :] - eps_v[:, None]
    e_abij = (eps_o[None, None, :, None] + eps_o[None, None, None, :]
              - eps_v[:, None, None, None] - eps_v[None, :, None, None])
    bad = np.argwhere(np.abs(e_abij) < floor)
    if bad.size:
        a, b, i, j = bad[0]
        raise DegenerateReferenceError(
            "denominator below floor for excitation "
            f"({occ[i]},{occ[j]}) -> ({virt[a]},{virt[b]}): "
            f"{e_abij[a, b, i, j]:.3e}")
    return e_ai, e_abij


def mp2_amplitudes(spin_ints, ref, floor=DENOMINATOR_FLOOR):
    """t2_ijab = <ij||ab> / (e_i + e_j - e_a - e_b); singles are zero."""
    occ, virt = _occ_virt(spin_ints, ref)
    f = fock_matrix(spin_ints, ref)
    g = spin_ints.antisymmetrized()
    eps = np.diag(f)
    _, e_abij = _denominators(eps[occ], eps[virt], floor, occ, virt)
    vten = g[np.ix_(virt, virt, occ, occ)]
    t2arr = vten / e_abij
    return _arrays_to_amplitudes(None, t2arr, occ, virt)


def _arrays_to_amplitudes(t1arr, t2arr, occ, virt, threshold=0.0):
    t = ClusterAmplitudes.empty(occ, virt)
    if t1arr is not None:
        for a in range(len(virt)):
            for i in range(len(occ)):
                v = t1arr[a, i]
                if abs(v) > threshold:
                    t.set_t1(occ[i], virt[a], float(v))
    for a, b in combinations(range(len(virt)), 2):
        for i, j in combinations(range(len(occ)), 2):
            v = t2arr[a, b, i, j]
            if abs(v) > threshold:
                t.set_t2(occ[i], occ[j], virt[a], virt[b], float(v))
    return t


def correlation_energy(f, g, t1, t2, o, v):
    e = 1.0 * einsum("ia,ai", f[o, v], t1)
    e += 0.25 * einsum("jiab,abji", g[o, o, v, v], t2)
    e += -0.5 * einsum("jiab,ai,bj", g[o, o, v, v], t1, t1)
    return float(e)


def mp2_energy(spin_ints, ref, t: ClusterAmplitudes):
    """Sum over canonical doubles of t_ijab * <ij||ab>."""
    g = spin_ints.antisymmetrized()
    return sum(v * g[i, j, a, b] for (i, j, a, b), v in t.t2.items())


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

    def __init__(self, size=DIIS_SIZE):
        self.size = size
        self.vecs = []
        self.errs = []

    def update(self, vec, err):
        self.vecs.append(vec)
        self.errs.append(err)
        if len(self.vecs) > self.size:
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


def ccsd_solve(spin_ints, ref, tol=CCSD_TOL, max_iter=CCSD_MAX_ITER,
               floor=DENOMINATOR_FLOOR, diis_size=DIIS_SIZE):
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
    e_ai, e_abij = _denominators(eps[occ], eps[virt], floor, occ, virt)

    t1 = np.zeros((nv, no))
    t2 = g[v, v, o, o] / e_abij
    diis = _Diis(diis_size)
    for _ in range(max_iter):
        r1 = _singles_residual(t1, t2, f, g, o, v)
        r2 = _doubles_residual(t1, t2, f, g, o, v)
        res_norm = max(np.abs(r1).max(initial=0.0),
                       np.abs(r2).max(initial=0.0))
        if res_norm <= tol:
            ecorr = correlation_energy(f, g, t1, t2, o, v)
            return _arrays_to_amplitudes(t1, t2, occ, virt), ecorr
        t1 = t1 + r1 / e_ai
        t2 = t2 + r2 / e_abij
        step = np.concatenate([t1.ravel(), t2.ravel()])
        err = np.concatenate([(r1 / e_ai).ravel(), (r2 / e_abij).ravel()])
        mixed = diis.update(step, err)
        t1 = mixed[:t1.size].reshape(t1.shape)
        t2 = mixed[t1.size:].reshape(t2.shape)
    raise ConvergenceError(
        f"CCSD not converged after {max_iter} iterations; "
        f"residual max-norm {res_norm:.3e}")


def partition(t: ClusterAmplitudes, space: ActiveSpace) -> AmplitudePartition:
    """Split by virtual indices: internal iff every virtual index is active."""
    active_virt = set(space.active_virtual_spin)
    internal = ClusterAmplitudes.empty(t.occupied, t.virtual)
    external = ClusterAmplitudes.empty(t.occupied, t.virtual)
    for (i, a), val in t.t1.items():
        (internal if a in active_virt else external).t1[(i, a)] = val
    for (i, j, a, b), val in t.t2.items():
        dest = internal if (a in active_virt and b in active_virt) else external
        dest.t2[(i, j, a, b)] = val
    return AmplitudePartition(internal, external)


def screen(t: ClusterAmplitudes, threshold: float) -> ClusterAmplitudes:
    """Drop doubles below threshold; singles always survive."""
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    out = ClusterAmplitudes.empty(t.occupied, t.virtual)
    out.t1 = dict(t.t1)
    out.t2 = {k: v for k, v in t.t2.items() if abs(v) >= threshold}
    return out


def save_amplitudes(t: ClusterAmplitudes, path):
    with open(path, "w") as fh:
        for (i, a), v in sorted(t.t1.items()):
            fh.write(f"T1 {i} {a} {v:.16e}\n")
        for (i, j, a, b), v in sorted(t.t2.items()):
            fh.write(f"T2 {i} {j} {a} {b} {v:.16e}\n")


def load_amplitudes(path, occupied, virtual) -> ClusterAmplitudes:
    """Read a ``save_amplitudes`` file; ValueError names ``path:line``.

    Each line is ``T1 i a value`` or ``T2 i j a b value`` with i, j in
    ``occupied``, a, b in ``virtual`` and a finite value; a key may appear
    once (a doubles key up to the order of its pairs).
    """
    t = ClusterAmplitudes.empty(occupied, virtual)
    occ, virt = set(occupied), set(virtual)
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                _load_line(t, line.split(), occ, virt)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}: {line!r}") from None
    return t


def _load_line(t, parts, occ, virt):
    n_idx = {"T1": 2, "T2": 4}.get(parts[0])
    if n_idx is None or len(parts) != n_idx + 2:
        raise ValueError("bad amplitude line")
    idx = [int(tok) for tok in parts[1:-1]]
    value = float(parts[-1])
    if not np.isfinite(value):
        raise ValueError("non-finite amplitude")
    half = n_idx // 2
    if any(p not in occ for p in idx[:half]) \
            or any(p not in virt for p in idx[half:]):
        raise ValueError("index outside the occupied/virtual modes")
    table = t.t1 if n_idx == 2 else t.t2
    size = len(table)
    (t.set_t1 if n_idx == 2 else t.set_t2)(*idx, value)
    if len(table) == size:
        raise ValueError("duplicate amplitude")
