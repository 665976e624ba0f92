import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from conftest import (dense_operator, random_fermion_operator,
                      random_integral_set)

from duccvqe import fermion
from duccvqe.ansatz import enumerate_excitations
from duccvqe.fermion import (ActiveSpace, FermionOperator, NonFiniteError,
                             SectorError, SpaceError, apply_string,
                             build_hamiltonian, commutator,
                             exact_ground_state, excitation_generator,
                             hf_determinant, hf_energy, multiply,
                             normal_order, ph_normal_order,
                             sector_determinants, sector_dimension,
                             sector_matrix)
from duccvqe.integrals import SpinIntegralSet

# frozen ground-state energies of the bundled fixtures (dense oracle)
FIXTURE_FCI = {
    "h2_ducc_0.8": -2.2591728192,
    "h2_ducc_1.4008": -1.8811068840,
    "h2_ducc_4.0": -1.2651837130,
    "h2_ducc_10.0": -1.1008953360,
}


def test_normal_order_matches_dense_oracle(rng):
    for _ in range(25):
        op = random_fermion_operator(rng, 4, 6)
        ordered = normal_order(op)
        np.testing.assert_allclose(dense_operator(ordered),
                                   dense_operator(op), atol=1e-10)


def test_normal_order_canonical_shape(rng):
    op = random_fermion_operator(rng, 5, 8)
    for ops in normal_order(op).terms:
        daggers = [d for _, d in ops]
        assert daggers == sorted(daggers, reverse=True)
        creators = [m for m, d in ops if d]
        annihilators = [m for m, d in ops if not d]
        assert creators == sorted(creators)
        assert annihilators == sorted(annihilators)
        assert len(set(creators)) == len(creators)


def test_anticommutator_contraction():
    op = FermionOperator.from_term(2, ((0, 0), (0, 1)))  # a_0 a_0^+
    ordered = normal_order(op)
    assert ordered.terms == {(): 1.0, ((0, 1), (0, 0)): -1.0}


def test_same_mode_repeats_vanish():
    op = FermionOperator.from_term(2, ((1, 1), (1, 1)))
    assert len(normal_order(op)) == 0


def test_star_is_scalar_product_only(rng):
    a = random_fermion_operator(rng, 3, 3)
    assert (2.0 * a).terms == {ops: 2.0 * c for ops, c in a.terms.items()}
    with pytest.raises(TypeError):
        a * a


def test_commutator_matches_dense_oracle(rng):
    for _ in range(15):
        a = random_fermion_operator(rng, 4, 4)
        b = random_fermion_operator(rng, 4, 4)
        c = commutator(a, b)
        da, db = dense_operator(a), dense_operator(b)
        np.testing.assert_allclose(dense_operator(c), da @ db - db @ da,
                                   atol=1e-9)


def test_overflow_raises_and_nan_survives_prune():
    big = FermionOperator.from_term(2, ((0, 1), (1, 0)), 1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError):
            multiply(big, big.dagger())
        with pytest.raises(NonFiniteError):
            commutator(big, big.dagger())
    op = FermionOperator(2, {((0, 1),): float("nan"), ((1, 1),): 1e-15})
    assert list(op.prune().terms) == [((0, 1),)]


def test_nan_integral_survives_into_hamiltonian():
    h1 = np.zeros((4, 4))
    h1[0, 2] = np.nan
    op = build_hamiltonian(SpinIntegralSet(4, h1, np.zeros((4,) * 4)))
    assert np.isnan(op.terms[((0, 1), (2, 0))])


def test_ph_normal_order_preserves_operator(rng):
    op = random_fermion_operator(rng, 4, 6)
    ref = 0b0011
    np.testing.assert_allclose(dense_operator(ph_normal_order(op, ref)),
                               dense_operator(op), atol=1e-10)


def test_ph_scalar_is_reference_expectation(rng):
    ints = random_integral_set(rng, 3)
    spin = ints.to_spin_orbital()
    h = build_hamiltonian(spin)
    ref = hf_determinant(2)
    remainder = ph_normal_order(h, ref)
    scalar = remainder.terms.pop((), 0.0)
    assert scalar == pytest.approx(hf_energy(spin, ref), abs=1e-10)
    # the remainder annihilates nothing from the scalar: no empty string
    assert () not in remainder.terms


def test_hamiltonian_hermitian(rng):
    ints = random_integral_set(rng, 3)
    h = build_hamiltonian(ints.to_spin_orbital())
    assert fermion.is_hermitian(h)


def test_apply_string_parity():
    # a_1^+ a_0 on |01> -> -? |10>; parity counts set bits below the mode
    det = 0b01
    sign, new = apply_string(((1, 1), (0, 0)), det)
    assert (sign, new) == (1, 0b10)
    sign, new = apply_string(((2, 1), (0, 0)), 0b011)
    assert (sign, new) == (-1, 0b110)
    assert apply_string(((0, 1),), 0b01) is None     # doubly create
    assert apply_string(((1, 0),), 0b01) is None     # annihilate empty


def test_sector_determinants_counts():
    dets = sector_determinants(8, 2, 0)
    assert len(dets) == 16  # 4 alpha x 4 beta
    assert hf_determinant(2) in dets
    assert sector_determinants(8, 2, 2) and len(sector_determinants(8, 2, 2)) == 6
    assert sector_determinants(4, 3, 0) == []  # parity mismatch
    assert sector_determinants(4, 6, 0) == []  # overfilled


def test_sector_matrix_matches_dense_block(rng):
    op = random_fermion_operator(rng, 4, 6, hermitian=True)
    dets = sector_determinants(4, 2, 0)
    block = sector_matrix(op, dets).toarray()
    dense = dense_operator(op)
    oracle = dense[np.ix_(dets, dets)]
    np.testing.assert_allclose(block, oracle, atol=1e-10)


def test_exact_ground_state_matches_dense(rng):
    ints = random_integral_set(rng, 3)
    h = build_hamiltonian(ints.to_spin_orbital())
    e, vec = exact_ground_state(h, 2, 0)
    dense = dense_operator(h)
    dets = sector_determinants(6, 2, 0)
    w = np.linalg.eigvalsh(dense[np.ix_(dets, dets)].real)
    assert e == pytest.approx(w[0], abs=1e-10)
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("name,energy", sorted(FIXTURE_FCI.items()))
def test_fixture_ground_energies(name, energy):
    from duccvqe.integrals import builtin_fixture
    h = build_hamiltonian(builtin_fixture(name).to_spin_orbital())
    e, _ = exact_ground_state(h, 2, 0)
    assert e == pytest.approx(energy, abs=1e-8)


def test_empty_sector_raises():
    op = FermionOperator.from_term(4, ())
    with pytest.raises(SectorError, match="empty sector"):
        exact_ground_state(op, 3, 0)


def test_active_space_partition():
    sp = ActiveSpace.build(4, (1,), (2, 3))
    assert sp.frozen_external == (4,)
    assert sp.active_spin == [0, 1, 2, 3, 4, 5]
    assert sp.compact_index()[4] == 4
    assert sp.n_active_spin == 6
    with pytest.raises(SpaceError):
        ActiveSpace.build(4, (1, 2), (2,))
    with pytest.raises(SpaceError):
        ActiveSpace.build(4, (1,), (2, 5))


def test_fock_diagonal_dominates(rng):
    ints = random_integral_set(rng, 4)
    spin = ints.to_spin_orbital()
    f = fermion.fock_matrix(spin, hf_determinant(2))
    assert f == pytest.approx(f.T, abs=1e-12)
    # orbital energies follow the engineered gap ordering
    eps = np.diag(f)
    assert eps[0] < eps[2] < eps[4] < eps[6]


def _sector_matrix_oracle(op, dets):
    """Every string applied to every determinant, in term order."""
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


def _assert_same_csr(op, dets):
    fast, oracle = sector_matrix(op, dets), _sector_matrix_oracle(op, dets)
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(fast, part), getattr(oracle, part))


@pytest.mark.parametrize("n_orbitals,n_electrons", [(3, 4), (6, 6)])
def test_sector_matrix_of_h_is_the_double_loop(rng, n_orbitals, n_electrons):
    h = build_hamiltonian(random_integral_set(rng, n_orbitals)
                          .to_spin_orbital())
    _assert_same_csr(h, sector_determinants(2 * n_orbitals, n_electrons, 0))


def test_sector_matrix_of_generators_is_the_double_loop():
    exc = enumerate_excitations(ActiveSpace.build(3, (1, 2)), 4)
    dets = sector_determinants(6, 4, 0)
    for key in exc.entries:
        _assert_same_csr(excitation_generator(key, 6), dets)


def test_sector_matrix_of_random_strings_is_the_double_loop():
    # general order, repeated modes and empty strings, in every sector
    rng = np.random.default_rng(8)
    sectors = [sector_determinants(6, n, ms2)
               for n in range(7) for ms2 in range(-n, n + 1, 2)]
    for _ in range(200):
        op = random_fermion_operator(rng, 6, 12, max_len=6)
        for dets in sectors:
            _assert_same_csr(op, dets)


def _hamiltonian_oracle(spin_ints):
    """1/2 sum (pq|rs) a_p^+ a_r^+ a_s a_q over every index order."""
    op = FermionOperator.zero(spin_ints.n_spin_orbitals)
    op.add_term((), spin_ints.scalar_shift)
    for (p, q), c in np.ndenumerate(spin_ints.h1):
        op.add_term(((p, 1), (q, 0)), c)
    for (p, q, r, s), c in np.ndenumerate(spin_ints.h2):
        if c:
            op.add_term(((p, 1), (r, 1), (s, 0), (q, 0)), 0.5 * c)
    return op


def test_build_hamiltonian_is_the_normal_ordered_expansion(rng):
    for n_orbitals in (2, 3, 4):
        spin = random_integral_set(rng, n_orbitals).to_spin_orbital()
        h = build_hamiltonian(spin)
        oracle = normal_order(_hamiltonian_oracle(spin))
        assert normal_order(h).terms == h.terms  # one canonical string each
        for key in h.terms.keys() | oracle.terms.keys():
            assert h.terms.get(key, 0.0) == pytest.approx(
                oracle.terms.get(key, 0.0), abs=1e-12)
        if n_orbitals == 3:
            np.testing.assert_allclose(
                dense_operator(h), dense_operator(_hamiltonian_oracle(spin)),
                atol=1e-12)


def test_build_hamiltonian_string_count(rng):
    h = build_hamiltonian(random_integral_set(rng, 6).to_spin_orbital())
    assert len(h) == 1818


def test_non_hermitian_operator_rejected():
    # n_0 and n_1 on 2 electrons in 4 modes, plus a lone a_2^+ a_0
    op = FermionOperator(4, {((0, 1), (0, 0)): -1.0, ((1, 1), (1, 0)): -1.0,
                             ((2, 1), (0, 0)): 0.2})
    with pytest.raises(SectorError, match="not Hermitian"):
        exact_ground_state(op, 2, 0)
    op.terms[((0, 1), (2, 0))] = 0.2
    e, _ = exact_ground_state(op, 2, 0)
    assert e == pytest.approx(-1.5 - np.sqrt(0.29), abs=1e-12)


def test_sector_cap_checked_before_enumerating():
    assert sector_dimension(56, 28, 0) == 40116600 ** 2
    with pytest.raises(SectorError, match="exceeds cap"):
        sector_determinants(56, 28, 0)
    with pytest.raises(SectorError, match="exceeds cap"):
        exact_ground_state(FermionOperator.zero(20), 10, 0)


def test_non_finite_sector_matrix_is_a_data_error():
    # two strings with the same matrix element sum past the float range
    n_0 = ((0, 1), (0, 0))
    h = FermionOperator(2, {n_0: 1e308, n_0 + n_0: 1e308})
    with pytest.raises(NonFiniteError):
        exact_ground_state(h, 1, 1)
    h.terms[n_0] = np.nan
    with pytest.raises(NonFiniteError):
        exact_ground_state(h, 1, 1)
