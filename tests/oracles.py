"""Reference implementations the package's fast paths are tested against.

Each is the plain form of a computation the package does another way:

- ``sector_determinants``, a nested loop over alpha and beta occupations,
  the oracle of ``fermion.sector_determinants``;
- ``sector_matrix``, every operator string applied to every determinant by
  ``apply_string``, the oracle of ``fermion.sector_hamiltonian`` (on the
  strings of ``build_hamiltonian``) and of ``fermion.excitation_matrix``
  (on those of ``excitation_generator``);
- ``slater_condon_matrix``, the Slater-Condon rules one determinant and one
  excitation at a time, summed in the documented order, the bit-for-bit
  oracle of ``fermion.sector_hamiltonian``;
- operator-string algebra (vacuum and particle-hole normal ordering,
  products, commutators), the oracle of the tensor downfold and of
  ``build_hamiltonian``;
- ``build_hamiltonian``, one dict entry per two-body term, the bit-for-bit
  oracle of ``fermion.build_hamiltonian``'s one ``dict.update``;
- the downfold on operator strings: ``sigma_ext_operator``,
  ``commutator_expand`` and ``project_active``, with ``_tensors`` reading
  an operator back as (scalar, X1, X2);
- ``fock_matrix`` and ``hf_energy`` read off the full <pq||rs>, the
  oracles of the package's forms on the occupied blocks of (pq|rs);
- ``mp2_amplitudes`` and ``mp2_energy`` read off the full <pq||rs>, the
  energy summed double by double, the oracles of the package's forms on
  the occupied-virtual block of (pq|rs);
- ``top_amplitudes``, every amplitude labelled and sorted, the oracle of
  ``amplitudes.top_amplitudes``, which sorts only the entries at or above
  the k-th largest magnitude;
- the downfold on full tensors: ``half``, ``bracket`` and
  ``full_tensor_downfold`` form every bracket on all m^4 entries with
  ``np.einsum`` and occupation weight tensors, the oracle of the brackets
  that ``ducc.downfold`` cuts to the active block;
- ``jordan_wigner``, which expands one ladder operator after the other
  with ``pauli_multiply``, the oracle of ``mapping.jordan_wigner``;
- ``pauli_is_hermitian``, a test of one coefficient at a time, the
  oracle of ``PauliSum.is_hermitian``;
- ``expectation``, one full gather of the state per Pauli string, the
  oracle of ``simulator.expectation``;
- ``objective``, each UCC factor applied as v + sin(theta) kappa v +
  2 sin^2(theta / 2) kappa^2 v with kappa the ``sector_matrix`` of its
  ``excitation_generator``, the bit-for-bit oracle of ``vqe.objective``;
- the CCSD residuals and correlation energy term by term, each term of
  three or more factors contracted along a cached ``np.einsum_path``
  order, the oracle of ``amplitudes._residuals`` and
  ``amplitudes.correlation_energy``;
- the FCIDUMP reader and writers on a dict of canonical orbit members,
  one line at a time (``DictIntegralSet``, ``read_fcidump``,
  ``save_fcidump``, ``save_spin_fcidump``), the oracles of the array
  parse and the dense ``IntegralSet`` of ``duccvqe.integrals``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

import numpy as np
import scipy.sparse as sp

from duccvqe.amplitudes import (ClusterAmplitudes, _antisymmetric,
                                _denominators, excitation_label)
from duccvqe.ducc import (_active_block, _integral_set, _reference,
                          _sigma_ext)
from duccvqe.fermion import (HERMITIAN_TOL, PRUNE_THRESHOLD, ActiveSpace,
                             FermionOperator, NonFiniteError,
                             excitation_generator, hf_determinant, negligible,
                             sector_dimension)
from duccvqe.integrals import (DUPLICATE_TOL, SPIN_ORBITAL_CAP, IntegralError,
                               SpinIntegralSet, _header_int, _is_uhf,
                               _parse_header)
from duccvqe.mapping import PauliString, PauliSum, pauli_multiply
from duccvqe.simulator import SimulatorError

IDENTITY = PauliString()


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


def normal_order(op: FermionOperator) -> FermionOperator:
    """Canonical vacuum normal form; equals the input as an operator."""
    out = {}
    for ops, c in op.terms.items():
        if c != 0.0:
            _normal_order_string(ops, c, out)
    return FermionOperator(op.n_modes, out).prune()


def _flip_occupied(ops, occ_set):
    return tuple((m, 1 - d) if m in occ_set else (m, d) for m, d in ops)


def ph_normal_order(op: FermionOperator, ref: int) -> FermionOperator:
    """Normal order relative to the Fermi vacuum of determinant ``ref``.

    Occupied-mode operators are hole-relabeled (a_i^+ <-> a_i), vacuum
    normal ordering is applied, and the labels are restored, so output
    strings have all quasiparticle creators on the left.
    """
    occ = {m for m in range(op.n_modes) if (ref >> m) & 1}
    flipped = FermionOperator(
        op.n_modes,
        {_flip_occupied(ops, occ): c for ops, c in op.terms.items()})
    ordered = normal_order(flipped)
    return FermionOperator(
        op.n_modes,
        {_flip_occupied(ops, occ): c for ops, c in ordered.terms.items()})


def _finite(op: FermionOperator) -> FermionOperator:
    if not np.isfinite(list(op.terms.values())).all():
        raise NonFiniteError(
            "operator product overflowed: a coefficient is inf or NaN")
    return op


@np.errstate(over="ignore", invalid="ignore")
def multiply(a: FermionOperator, b: FermionOperator) -> FermionOperator:
    """Normal-ordered product a b; NonFiniteError if a coefficient overflows."""
    out = {}
    for ops1, c1 in a.terms.items():
        for ops2, c2 in b.terms.items():
            _normal_order_string(ops1 + ops2, c1 * c2, out)
    return _finite(FermionOperator(a.n_modes, out)).prune()


@np.errstate(over="ignore", invalid="ignore")
def commutator(a: FermionOperator, b: FermionOperator) -> FermionOperator:
    """[a, b], normal ordered; NonFiniteError as in ``multiply``."""
    return _finite(multiply(a, b) - multiply(b, a)).prune()


def is_hermitian(op: FermionOperator) -> bool:
    diff = normal_order(op - op.dagger())
    return all(abs(c) <= HERMITIAN_TOL for c in diff.terms.values())


def build_hamiltonian(spin_ints) -> FermionOperator:
    """H of ``fermion.build_hamiltonian``, one two-body term at a time."""
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


def sector_determinants(n_modes, n_electrons, ms2):
    """Sorted list of the determinants with given electron count and
    2*Sz, one alpha occupation and one beta occupation at a time."""
    if not sector_dimension(n_modes, n_electrons, ms2):
        return []
    n_alpha = (n_electrons + ms2) // 2
    n_beta = (n_electrons - ms2) // 2
    dets = []
    for occ_a in combinations(range(0, n_modes, 2), n_alpha):
        mask_a = sum(1 << m for m in occ_a)
        for occ_b in combinations(range(1, n_modes, 2), n_beta):
            dets.append(mask_a + sum(1 << m for m in occ_b))
    return sorted(dets)


@np.errstate(over="ignore", invalid="ignore")
def slater_condon_matrix(spin_ints, dets):
    """Dense H on the determinants ``dets`` by the Slater-Condon rules, one
    determinant and one excitation at a time, every sum in the order the
    docstring of ``fermion.sector_hamiltonian`` gives: the shift, then
    h_ii and <ij||ij> over ascending i < j for the diagonal, h_ai and then
    <ak||ik> over ascending k for a single. Integrals at or below
    ``PRUNE_THRESHOLD`` are zero, as in ``build_hamiltonian``; the sign of
    each excitation is ``apply_string``'s. The bit-for-bit oracle of
    ``fermion.sector_hamiltonian``."""
    h2 = spin_ints.h2

    def kept(x):
        return 0.0 if abs(x) <= PRUNE_THRESHOLD else x

    def g(p, q, r, s):      # <pq||rs> = (pr|qs) - (ps|qr)
        return kept(h2[p, r, q, s] - h2[p, s, q, r])

    h1 = np.vectorize(kept)(spin_ints.h1)
    dets = [int(d) for d in dets]
    index = {d: k for k, d in enumerate(dets)}
    mat = np.zeros((len(dets), len(dets)))
    for row, det in enumerate(dets):
        occ = [p for p in range(spin_ints.n_spin_orbitals) if det >> p & 1]
        vir = [p for p in range(spin_ints.n_spin_orbitals)
               if not det >> p & 1]
        value = float(spin_ints.scalar_shift)
        for i in occ:
            value += h1[i, i]
        for i, j in combinations(occ, 2):
            value += g(i, j, i, j)
        entries = [(det, value)]
        for a in occ:
            for i in (i for i in vir if (i - a) % 2 == 0):
                value = h1[a, i]
                for k in occ:
                    value += g(a, k, i, k)
                entries.append((det ^ 1 << a ^ 1 << i, value, (a, 1), (i, 0)))
        for a, b in combinations(occ, 2):
            for i, j in combinations(vir, 2):
                if (a % 2 + b % 2) == (i % 2 + j % 2):
                    entries.append((det ^ 1 << a ^ 1 << b ^ 1 << i ^ 1 << j,
                                    g(a, b, i, j), (a, 1), (b, 1), (j, 0),
                                    (i, 0)))
        for col, value, *ops in entries:
            sign, back = apply_string(ops, col)
            assert back == det
            if value != 0:  # NaN is kept
                mat[row, index[col]] = sign * value
    return mat


def sector_matrix(op: FermionOperator, dets):
    """CSR matrix of ``op`` on the determinants ``dets`` (columns act):
    every string applied to every determinant, in term order.
    Determinants are read as Python ints."""
    dets = [int(d) for d in dets]
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


def sigma_ext_operator(t: ClusterAmplitudes, space: ActiveSpace,
                       n_modes) -> FermionOperator:
    """Anti-Hermitian sum t_k kappa_k over the external amplitudes, those
    with a virtual index outside the active space."""
    active = set(space.active_virtual_spin)
    sigma = FermionOperator.zero(n_modes)
    for key, value in t.items():
        if not active.issuperset(key[len(key) // 2:]):
            for ops, c in excitation_generator(key, n_modes).terms.items():
                sigma.add_term(ops, value * c)
    return sigma.prune()


def commutator_expand(h: FermionOperator, f: FermionOperator,
                      sigma: FermionOperator) -> FermionOperator:
    """H + [H_N, s] + 1/2 [[F_N, s], s], normal ordered and merged.

    Scalar parts of H and F commute away, so plain operators are accepted;
    the scalar normalization keeps full-space eigenvalues of the output
    identical to those of H when the active space is the whole space.
    """
    h_bar = normal_order(h)
    if len(sigma) == 0:
        return h_bar
    h_bar = h_bar + commutator(h, sigma)
    h_bar = h_bar + 0.5 * commutator(commutator(f, sigma), sigma)
    return normal_order(h_bar)


def _tensors(op: FermionOperator, m):
    """(scalar, X1, X2) of a creators-first operator of rank <= 2.

    The operator reads  scalar + sum X1[P,Q] a_P^+ a_Q
    + 1/4 sum X2[P,Q,R,S] a_P^+ a_Q^+ a_S a_R  with X2 antisymmetric.
    """
    x1 = np.zeros((m, m))
    x2 = np.zeros((m, m, m, m))
    scalar = 0.0
    for ops, c in op.terms.items():
        c = float(np.real_if_close(c))
        if len(ops) == 0:
            scalar += c
        elif len(ops) == 2:
            (p, _), (q, _) = ops
            x1[p, q] += c
        else:
            # a+_p a+_q a_r a_s => X2[p,q,s,r] = c
            (p, _), (q, _), (r, _), (s, _) = ops
            for (pp, qq, s1) in ((p, q, 1.0), (q, p, -1.0)):
                for (rr, ss, s2) in ((s, r, 1.0), (r, s, -1.0)):
                    x2[pp, qq, rr, ss] += s1 * s2 * c
    return scalar, x1, x2


def project_active(h_bar: FermionOperator, space: ActiveSpace,
                   ref: int) -> SpinIntegralSet:
    """Keep active-index strings of rank <= 2 in particle-hole normal form.

    The survivors are mapped back to plain creation/annihilation form with
    Wick contraction constants folded into chi1 and the scalar, over
    compact active spin orbitals (occupied first); ``antisymmetrized()``
    of the result gives chi2.
    """
    active = set(space.active_spin)
    compact = space.compact_index()
    kept = FermionOperator.zero(space.n_active_spin)
    for ops, c in ph_normal_order(h_bar, ref).terms.items():
        if len(ops) <= 4 and all(mode in active for mode, _ in ops):
            kept.add_term(tuple((compact[mode], dag) for mode, dag in ops), c)
    return _integral_set(*_tensors(normal_order(kept), space.n_active_spin))


def fock_matrix(spin_ints, ref: int) -> np.ndarray:
    """f_pq = h_pq + sum_{i occ} <pi||qi> on the full <pq||rs>."""
    occ = [m for m in range(spin_ints.n_spin_orbitals) if (ref >> m) & 1]
    g = spin_ints.antisymmetrized()
    f = spin_ints.h1.copy()
    for i in occ:
        f += g[:, i, :, i]
    return f


def hf_energy(spin_ints, ref: int) -> float:
    occ = [m for m in range(spin_ints.n_spin_orbitals) if (ref >> m) & 1]
    g = spin_ints.antisymmetrized()
    e = spin_ints.scalar_shift + sum(spin_ints.h1[i, i] for i in occ)
    e += 0.5 * sum(g[i, j, i, j] for i in occ for j in occ)
    return e


def mp2_amplitudes(spin_ints, n_electrons):
    """t2_abij = <ab||ij> / (e_i + e_j - e_a - e_b) on the full <pq||rs>,
    with spin orbitals 0..N-1 occupied."""
    occ = list(range(n_electrons))
    virt = list(range(n_electrons, spin_ints.n_spin_orbitals))
    eps = np.diag(fock_matrix(spin_ints, hf_determinant(n_electrons)))
    _, e_abij = _denominators(eps, n_electrons)
    vten = spin_ints.antisymmetrized()[np.ix_(virt, virt, occ, occ)]
    return ClusterAmplitudes(np.zeros((len(virt), len(occ))),
                             _antisymmetric(vten / e_abij))


def mp2_energy(spin_ints, t: ClusterAmplitudes):
    """Sum over canonical doubles of t_ijab * <ij||ab>, one at a time."""
    g = spin_ints.antisymmetrized()
    return sum(v * g[key] for key, v in t.items() if len(key) == 4)


def top_amplitudes(t: ClusterAmplitudes, k):
    """Every amplitude labelled and sorted, by magnitude down and then by
    label, the first k kept."""
    entries = [(excitation_label(key), abs(v)) for key, v in t.items()]
    entries.sort(key=lambda e: (-e[1], e[0]))
    return entries[:k]


def half(a, b, n):
    """The IMSRG(2) commutator terms with A on the left; n: occupations.

    The full-tensor form, every output index over all m spin orbitals and
    the occupations as weight tensors: the oracle of ``ducc._half``.
    Each term of the rank <= 2 part of [A, B] is written once as a product
    A B, so that [A, B] = half(A, B) - half(B, A). A two-body slot of
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


def bracket(a, b, n):
    """Zero-, one- and two-body parts of [A, B] on all m^4 entries."""
    return tuple(x - y for x, y in zip(half(a, b, n), half(b, a, n)))


def active_cut(x, space: ActiveSpace):
    """(X0, X1, X2) cut to the active spin orbitals, occupied first."""
    act = space.active_spin
    return x[0], x[1][np.ix_(act, act)], x[2][np.ix_(act, act, act, act)]


def full_tensor_downfold(spin_ints, space: ActiveSpace,
                         t: ClusterAmplitudes) -> SpinIntegralSet:
    """``ducc.downfold`` with both outer brackets formed in full and cut
    to the active block afterwards."""
    n, h_n = _reference(spin_ints, space)
    sigma = _sigma_ext(t, space, spin_ints.n_spin_orbitals)
    once = bracket(h_n, sigma, n)
    twice = bracket(bracket((0.0, h_n[1], None), sigma, n), sigma, n)
    return _active_block(active_cut(
        [x + y + 0.5 * z for x, y, z in zip(h_n, once, twice)], space), space)


def _mode_image(mode, dagger):
    """JW image of a_p^+ (or a_p): two Pauli strings with a lower Z chain."""
    zchain = (1 << mode) - 1
    x_string = PauliString(1 << mode, zchain)
    y_string = PauliString(1 << mode, zchain | (1 << mode))
    sign = -1j if dagger else 1j
    return ((x_string, 0.5), (y_string, sign * 0.5))


def jordan_wigner(op) -> PauliSum:
    """Map a FermionOperator to its qubit PauliSum."""
    out = PauliSum.zero(op.n_modes)
    for ops, coeff in op.terms.items():
        partial = [(IDENTITY, coeff)]
        for mode, dag in ops:
            image = _mode_image(mode, dag)
            nxt = []
            for s1, c1 in partial:
                for s2, c2 in image:
                    phase, s = pauli_multiply(s1, s2)
                    nxt.append((s, phase * c1 * c2))
            partial = nxt
        for s, c in partial:
            out.add_term(s, c)
    return out.prune()


def _string_expectation(string, amp):
    """<psi|P|psi> from P|k> = i^{nY} (-1)^{|k & z|} |k ^ x>."""
    n_y = (string.x & string.z).bit_count()
    k = np.arange(amp.size, dtype=np.uint64)
    signs = 1.0 - 2.0 * (np.bitwise_count(k & np.uint64(string.z)) & 1)
    bra = np.conj(amp)[k ^ np.uint64(string.x)]
    return (1j ** n_y) * np.dot(bra, signs * amp)


def pauli_is_hermitian(h: PauliSum) -> bool:
    """Term by term: only a complex coefficient has an imaginary part, and
    none may pass HERMITIAN_TOL."""
    return all(abs(c.imag if isinstance(c, complex) else 0.0)
               <= HERMITIAN_TOL for c in h.terms.values())


def expectation(h, amp) -> float:
    """Exact <psi|H|psi> for a Hermitian PauliSum and amplitudes ``amp``."""
    if not h.is_hermitian():
        raise SimulatorError("PauliSum has non-real coefficients")
    val = 0.0 + 0.0j
    for string, c in h.terms.items():
        val += c * _string_expectation(string, amp)
    if abs(val.imag) > HERMITIAN_TOL:
        raise SimulatorError(f"expectation has imaginary residue {val.imag}")
    return float(val.real)


def objective(problem, params) -> float:
    """<psi|H|psi> of ``vqe.objective``, with full-length kappa v and
    kappa^2 v for every factor and H the problem's own sector matrix."""
    m = problem.excitations.n_spin_orbitals
    dets = sector_determinants(m, problem.n_electrons, 0)
    v = np.zeros(len(dets))
    v[dets.index(hf_determinant(problem.n_electrons))] = 1.0
    for theta, key in zip(params, problem.excitations.entries):
        kappa = sector_matrix(excitation_generator(key, m), dets)
        kv = kappa @ v
        kkv = kappa @ kv
        v = v + math.sin(theta) * kv + 2.0 * math.sin(0.5 * theta) ** 2 * kkv
    return float(v @ (problem._hamiltonian @ v))


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


def correlation_energy(f, g, t1, t2, o, v):
    e = 1.0 * einsum("ia,ai", f[o, v], t1)
    e += 0.25 * einsum("jiab,abji", g[o, o, v, v], t2)
    e += -0.5 * einsum("jiab,ai,bj", g[o, o, v, v], t1, t1)
    return float(e)


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


# The dict-based FCIDUMP reader and writers: one dict entry per canonical
# orbit member, one file line at a time. The oracles of the array parse,
# the dense IntegralSet and the masked writers of ``duccvqe.integrals``.


def _set_once(table, key, value, kind):
    """table[key] = value; an earlier value that differs is an error."""
    old = table.get(key)
    if old is not None and abs(old - value) > DUPLICATE_TOL:
        raise IntegralError(
            f"conflicting duplicate {kind} entry {key}: {old} vs {value}")
    table[key] = value


def _canonical_h1(i, j):
    return (i, j) if i <= j else (j, i)


def _h2_orbit(i, j, k, l):
    return ((i, j, k, l), (j, i, l, k), (k, l, i, j), (l, k, j, i))


def _canonical_h2(i, j, k, l):
    return min(_h2_orbit(i, j, k, l))


@dataclass
class DictIntegralSet:
    """Spatial-orbital integrals keyed by the canonical member of their
    symmetry orbit, 1-based."""

    n_orbitals: int
    h1: dict = field(default_factory=dict, init=False)
    h2: dict = field(default_factory=dict, init=False)
    scalar_shift: float = 0.0

    def _check_range(self, *indices):
        for p in indices:
            if not 1 <= p <= self.n_orbitals:
                raise IntegralError(
                    f"orbital index {p} outside 1..{self.n_orbitals}")

    def set_h1(self, i, j, value):
        self._check_range(i, j)
        _set_once(self.h1, _canonical_h1(i, j), value, "one-body")

    def set_h2(self, i, j, k, l, value):
        self._check_range(i, j, k, l)
        _set_once(self.h2, _canonical_h2(i, j, k, l), value, "two-body")

    def h1_matrix(self):
        n = self.n_orbitals
        m = np.zeros((n, n))
        for (i, j), v in self.h1.items():
            m[i - 1, j - 1] = v
            m[j - 1, i - 1] = v
        return m

    def h2_tensor(self):
        n = self.n_orbitals
        t = np.zeros((n, n, n, n))
        for (i, j, k, l), v in self.h2.items():
            for (a, b, c, d) in _h2_orbit(i, j, k, l):
                t[a - 1, b - 1, c - 1, d - 1] = v
        return t

    def to_spin_orbital(self):
        n = self.n_orbitals
        m = 2 * n
        h1s = np.zeros((m, m))
        h1s[0::2, 0::2] = h1s[1::2, 1::2] = self.h1_matrix()
        h2 = self.h2_tensor()
        h2s = np.zeros((m, m, m, m))
        for sp_ in (0, 1):
            for sr in (0, 1):
                h2s[sp_::2, sp_::2, sr::2, sr::2] = h2
        return SpinIntegralSet(m, h1s, h2s, self.scalar_shift)


def read_lines(path):
    """(header fields, [(lineno, i, j, k, l, value), ...]), line by line."""
    header = None
    body = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line or line in ("/", "&END"):
                continue
            if line.startswith("&"):
                if header is not None:
                    raise IntegralError(f"{path}:{lineno}: second header line")
                header = _parse_header(line)
                continue
            if header is None:
                raise IntegralError(
                    f"{path}:{lineno}: data before &FCI header")
            parts = line.split()
            if len(parts) != 5:
                raise IntegralError(
                    f"{path}:{lineno}: expected 'i j k l value', got {line!r}")
            try:
                i, j, k, l = (int(p) for p in parts[:4])
                value = float(parts[4])
            except ValueError as exc:
                raise IntegralError(f"{path}:{lineno}: {exc}") from None
            if not math.isfinite(value):
                raise IntegralError(
                    f"{path}:{lineno}: non-finite value {parts[4]!r}")
            body.append((lineno, i, j, k, l, value))
    if header is None:
        raise IntegralError(f"{path}: missing &FCI header")
    return header, body


def _dict_spatial(header, body, path, spin_per_orbital=2):
    n = _header_int(header, "NORB", path)
    if n < 1:
        raise IntegralError(f"{path}: NORB={n} is not positive")
    if n * spin_per_orbital > SPIN_ORBITAL_CAP:
        raise IntegralError(
            f"{path}: NORB={n} gives {n * spin_per_orbital} spin orbitals, "
            f"above the cap {SPIN_ORBITAL_CAP}")
    ints = DictIntegralSet(n_orbitals=n)
    for lineno, i, j, k, l, value in body:
        try:
            if i == j == k == l == 0:
                ints.scalar_shift = value
            elif k == 0 and l == 0:
                ints.set_h1(i, j, value)
            else:
                ints.set_h2(i, j, k, l, value)
        except IntegralError as exc:
            raise IntegralError(f"{path}:{lineno}: {exc}") from None
    return ints


def read_fcidump(path):
    """(DictIntegralSet or SpinIntegralSet, nelec, ms2) of any file."""
    header, body = read_lines(path)
    if _is_uhf(header):
        ints = _dict_spatial(header, body, path, spin_per_orbital=1)
        ints = SpinIntegralSet(ints.n_orbitals, ints.h1_matrix(),
                               ints.h2_tensor(), ints.scalar_shift)
    else:
        ints = _dict_spatial(header, body, path)
    return (ints, _header_int(header, "NELEC", path, 0),
            _header_int(header, "MS2", path, 0))


def _write(ints: DictIntegralSet, path, fields):
    with open(path, "w") as fh:
        fh.write(f"&FCI NORB={ints.n_orbitals} {fields}\n")
        for (i, j, k, l), v in sorted(ints.h2.items()):
            fh.write(f"{i} {j} {k} {l} {v:.16e}\n")
        for (i, j), v in sorted(ints.h1.items()):
            fh.write(f"{i} {j} 0 0 {v:.16e}\n")
        if ints.scalar_shift:
            fh.write(f"0 0 0 0 {ints.scalar_shift:.16e}\n")


def save_fcidump(ints: DictIntegralSet, path, nelec, ms2=0):
    _write(ints, path, f"NELEC={nelec} MS2={ms2}")


def save_spin_fcidump(spin_ints: SpinIntegralSet, path, nelec, ms2=0):
    """Every kept orbit member set entry by entry, in reverse index order,
    so that the canonical member is set last and its value written."""
    if not (np.isfinite(spin_ints.h1).all() and np.isfinite(spin_ints.h2).all()
            and math.isfinite(spin_ints.scalar_shift)):
        raise NonFiniteError(
            f"{path}: not written: an integral is inf or NaN")
    ints = DictIntegralSet(spin_ints.n_spin_orbitals,
                           scalar_shift=spin_ints.scalar_shift)
    for x, orbit, put in ((spin_ints.h2, _h2_orbit(0, 1, 2, 3), ints.set_h2),
                          (spin_ints.h1, ((0, 1), (1, 0)), ints.set_h1)):
        kept = np.abs(x) > PRUNE_THRESHOLD
        kept = np.logical_or.reduce([kept.transpose(axes) for axes in orbit])
        for idx, v in reversed(list(zip(np.argwhere(kept).tolist(),
                                        x[kept].tolist()))):
            put(*(p + 1 for p in idx), v)
    _write(ints, path, f"NELEC={nelec} MS2={ms2} UHF=.TRUE.")
