import tracemalloc
import warnings
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
import scipy.sparse as sp
from conftest import (FIXTURES, dense_operator, one_body_integrals,
                      random_fermion_operator, random_integral_set)
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (apply_string, commutator, is_hermitian, multiply,
                     normal_order, ph_normal_order, sector_matrix,
                     slater_condon_matrix)
from oracles import sector_determinants as oracle_sector_determinants
from oracles import fock_matrix as oracle_fock_matrix
from oracles import hf_energy as oracle_hf_energy

from duccvqe import fermion
from duccvqe.amplitudes import ccsd_solve
from duccvqe.ansatz import enumerate_excitations
from duccvqe.ducc import downfold
from duccvqe.fermion import (ActiveSpace, FermionOperator, NonFiniteError,
                             SectorError, SpaceError, build_hamiltonian,
                             checked_sector_hamiltonian, exact_ground_state,
                             excitation_generator, excitation_matrix,
                             hf_determinant, hf_energy, sector_determinants,
                             sector_dimension, sector_hamiltonian)
from duccvqe.integrals import IntegralSet, SpinIntegralSet, builtin_fixture

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
    assert is_hermitian(h)


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
    assert len(sector_determinants(8, 2, 2)) == 6
    assert len(sector_determinants(4, 3, 0)) == 0  # parity mismatch
    assert len(sector_determinants(4, 6, 0)) == 0  # overfilled


def test_sector_determinants_are_the_nested_loop():
    # every sector of 1-14 modes under the cap, the empty ones included
    for m in range(1, 15):
        for n in range(m + 2):
            for ms2 in range(-n - 1, n + 2):
                if sector_dimension(m, n, ms2) > fermion.SECTOR_DIM_CAP:
                    continue
                dets = sector_determinants(m, n, ms2)
                assert dets.dtype == np.uint64
                assert np.array_equal(
                    dets, oracle_sector_determinants(m, n, ms2))


def test_sector_matrix_matches_dense_block(rng):
    op = random_fermion_operator(rng, 4, 6, hermitian=True)
    dets = sector_determinants(4, 2, 0)
    block = sector_matrix(op, dets).toarray()
    dense = dense_operator(op)
    oracle = dense[np.ix_(dets, dets)]
    np.testing.assert_allclose(block, oracle, atol=1e-10)


def test_exact_ground_state_matches_dense(rng):
    spin = random_integral_set(rng, 3).to_spin_orbital()
    e, vec = exact_ground_state(spin, 2, 0)
    dense = dense_operator(build_hamiltonian(spin))
    dets = sector_determinants(6, 2, 0)
    w = np.linalg.eigvalsh(dense[np.ix_(dets, dets)].real)
    assert e == pytest.approx(w[0], abs=1e-10)
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("name,energy", sorted(FIXTURE_FCI.items()))
def test_fixture_ground_energies(name, energy):
    from duccvqe.integrals import builtin_fixture
    e, _ = exact_ground_state(builtin_fixture(name).to_spin_orbital(), 2, 0)
    assert e == pytest.approx(energy, abs=1e-8)


def test_empty_sector_raises():
    with pytest.raises(SectorError, match="empty sector"):
        exact_ground_state(one_body_integrals(np.zeros((4, 4))), 3, 0)


def test_ground_state_energy_overflow_is_non_finite():
    # one alpha electron in three orbitals: every entry of the 3 x 3 sector
    # matrix is finite, its lowest eigenvalue 3 * -0.7e308 is not
    h1 = np.zeros((6, 6))
    h1[0::2, 0::2] = -0.7e308
    with pytest.raises(NonFiniteError,
                       match="ground-state energy overflowed: -inf"):
        exact_ground_state(one_body_integrals(h1), 1, 1)


def test_no_determinants_give_an_empty_matrix():
    # 3 electrons cannot have Sz = 0
    spin = random_integral_set(np.random.default_rng(3), 2).to_spin_orbital()
    assert sector_hamiltonian(spin, 3, 0).shape == (0, 0)
    assert checked_sector_hamiltonian(spin, 3, 0).shape == (0, 0)


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


def _spin_resolved_set(rng, n_orbitals):
    """Spin integrals whose alpha and beta orbitals differ, as in a UHF
    file: every spin block of h1 and h2 drawn on its own."""
    m = 2 * n_orbitals
    h1, h2 = np.zeros((m, m)), np.zeros((m,) * 4)
    for s in (0, 1):
        h1[s::2, s::2] = random_integral_set(rng, n_orbitals).h1
        for t in (0, 1):
            h2[s::2, s::2, t::2, t::2] = random_integral_set(
                rng, n_orbitals).h2
    return SpinIntegralSet(m, h1, h2, float(rng.normal()))


def test_fock_and_hf_energy_match_antisymmetrized_form(rng):
    cases = [(builtin_fixture(name).to_spin_orbital(), hf_determinant(2))
             for name in FIXTURES]
    cases += [(_spin_resolved_set(rng, 4), ref)
              for ref in (hf_determinant(2), 0b1001, 0b0111)]
    # both forms are identities for any h2, symmetric or not
    cases += [(SpinIntegralSet(6, rng.normal(size=(6, 6)),
                               rng.normal(size=(6,) * 4), 0.5), ref)
              for ref in (0b000011, 0b100110)]
    for n_orbitals, n_electrons in ((3, 2), (5, 4), (6, 6)):
        spin = random_integral_set(rng, n_orbitals).to_spin_orbital()
        cases.append((spin, hf_determinant(n_electrons)))
    for spin, ref in cases:
        np.testing.assert_allclose(fermion.fock_matrix(spin, ref),
                                   oracle_fock_matrix(spin, ref),
                                   rtol=0, atol=1e-12)
        assert hf_energy(spin, ref) == pytest.approx(
            oracle_hf_energy(spin, ref), abs=1e-12)


# every (N, Sz) sector of 6 modes, the empty ones included
SECTORS_6 = [sector_determinants(6, n, ms2)
             for n in range(7) for ms2 in range(-n, n + 1, 2)]


def _assert_same_csr(key, dets):
    # kappa = E - E^T from the entries of E
    rows, cols, signs = excitation_matrix(key, dets)
    fast = sp.csr_matrix((np.concatenate([signs, -signs]),
                          (np.concatenate([rows, cols]),
                           np.concatenate([cols, rows]))),
                         shape=(len(dets),) * 2)
    oracle = sector_matrix(excitation_generator(key, 6), dets)
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(fast, part), getattr(oracle, part))


def test_sector_matrix_of_generators_is_the_double_loop():
    # every canonical key of 6 modes, in every sector
    for occupied in ((1,), (1, 2)):
        exc = enumerate_excitations(ActiveSpace.build(3, occupied))
        for key in exc.entries:
            for dets in SECTORS_6:
                _assert_same_csr(key, dets)


def test_excitation_matrix_rejects_unsorted_determinants():
    dets = sector_determinants(8, 2, 0)
    assert len(excitation_matrix((0, 2), dets)[0]) == 4
    for bad in (dets[::-1], np.insert(dets, 5, dets[5])):
        with pytest.raises(SectorError, match="strictly ascending"):
            excitation_matrix((0, 2), bad)


def test_sector_matrix_of_random_strings_is_the_double_loop():
    # the two strings of random Sz-keeping keys of distinct modes, in any
    # order, in every sector
    rng = np.random.default_rng(8)
    n_keys = 0
    while n_keys < 200:
        key = tuple(int(p) for p in rng.permutation(6)[:rng.choice((2, 4))])
        half = len(key) // 2
        if sum(p % 2 for p in key[:half]) != sum(p % 2 for p in key[half:]):
            continue
        n_keys += 1
        for dets in SECTORS_6:
            _assert_same_csr(key, dets)


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


def test_exact_ground_state_averages_as_the_sparse_sum(monkeypatch, rng):
    # the H exact_ground_state diagonalizes: in place where H and its
    # transpose share a pattern, by sparse sums where an entry's mirror is
    # missing; either way (H + H^T) / 2 exactly, dense or CSR
    h1 = np.diag([-1.0, -1.0, 0.5, 0.5])
    h1[2, 0] = 5e-11      # kept by the pruning, inside HERMITIAN_TOL
    cases = [(builtin_fixture(name).to_spin_orbital(), 2, 0)
             for name in FIXTURES]
    cases += [(random_integral_set(rng, 4).to_spin_orbital(), 4, 0),
              (random_integral_set(rng, 5).to_spin_orbital(), 3, 1),
              (one_body_integrals(h1), 2, 0)]
    for limit, layout in ((fermion.DENSE_SECTOR_LIMIT, np.ndarray),
                          (1, sp.csr_matrix)):
        monkeypatch.setattr(fermion, "DENSE_SECTOR_LIMIT", limit)
        for spin, n_electrons, ms2 in cases:
            mat = sector_hamiltonian(spin, n_electrons, ms2)
            got = checked_sector_hamiltonian(spin, n_electrons, ms2)
            assert isinstance(got, layout)
            if sp.issparse(got):
                got = got.toarray()
            assert np.array_equal(got, ((mat + mat.T) / 2).toarray())
    # the last case has a missing mirror, so it took the sparse sums
    assert not np.array_equal(mat.indices, mat.T.tocsr().indices)


# (orbitals, electrons, 2 Sz): 100, 300, 400, 735, 784 and 1225
# determinants, on both sides of DENSE_SECTOR_LIMIT, and a sector of one
GROUND_STATE_SECTORS = [(5, 4, 0), (6, 5, 1), (6, 6, 0), (7, 5, 1),
                        (8, 4, 0), (7, 6, 0), (3, 6, 0)]


@pytest.mark.parametrize("n_orbitals,n_electrons,ms2", GROUND_STATE_SECTORS)
def test_exact_ground_state_is_the_lowest_eigenpair(n_orbitals, n_electrons,
                                                    ms2):
    spin = random_integral_set(np.random.default_rng(
        [n_orbitals, n_electrons, ms2]), n_orbitals).to_spin_orbital()
    mat = sector_hamiltonian(spin, n_electrons, ms2)
    dense = ((mat + mat.T) / 2).toarray()
    (e, v), (again, _) = (exact_ground_state(spin, n_electrons, ms2)
                          for _ in range(2))
    assert e == pytest.approx(np.linalg.eigvalsh(dense)[0], abs=1e-10)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(dense @ v - e * v) <= 1e-10
    # bit for bit: the Davidson start block, seeded random vector
    # included, is fixed
    assert again == e


def test_restarted_basis_finds_the_same_pair(monkeypatch):
    # a basis of 10 rows restarts from the 8 lowest Ritz vectors every other
    # iteration, on a dense and on a CSR H
    monkeypatch.setattr(fermion, "DAVIDSON_MAX_BASIS", 10)
    for n_orbitals in (6, 7):
        spin = random_integral_set(np.random.default_rng(
            [n_orbitals, 6, 0]), n_orbitals).to_spin_orbital()
        mat = sector_hamiltonian(spin, 6, 0)
        dense = ((mat + mat.T) / 2).toarray()
        e, v = exact_ground_state(spin, 6, 0)
        assert e == pytest.approx(np.linalg.eigvalsh(dense)[0], abs=1e-10)
        assert np.linalg.norm(dense @ v - e * v) <= 1e-10


def test_ground_state_of_large_integrals_converges():
    # at a core energy of 1e5 Hartree rounding in H x leaves more in the
    # residual than DAVIDSON_TOL; integrals of 1e300 would overflow the
    # squares of a plain residual norm
    spin = random_integral_set(np.random.default_rng(3), 7).to_spin_orbital()
    e, _ = exact_ground_state(spin, 6, 0)
    shifted, _ = exact_ground_state(replace(spin, scalar_shift=1e5), 6, 0)
    assert shifted - 1e5 == pytest.approx(e, abs=1e-9)
    big = replace(spin, h1=spin.h1 * 1e300, h2=spin.h2 * 1e300)
    assert exact_ground_state(big, 6, 0)[0] == pytest.approx(e * 1e300,
                                                              rel=1e-12)


def test_ground_state_outside_the_start_block_is_found():
    # a Z2 orbital parity: orbitals 1-4 even, 5-8 odd, every integral
    # even. The 32 determinants with one electron in each class (odd
    # parity) hold the lowest diagonal entries, -1, and so the unit vectors
    # of the start block; the ground state, both electrons in the bonding
    # orbital of 1-4, has even parity, and only the seeded random start
    # vector reaches it
    ints = IntegralSet(n_orbitals=8)
    for p, q in combinations(range(1, 9), 2):
        if (p <= 4) == (q <= 4):
            ints.set_h1(p, q, -1.5 if p <= 4 else -0.2)
        else:
            ints.set_h2(p, p, q, q, -1.0)
    spin = ints.to_spin_orbital()
    mat = sector_hamiltonian(spin, 2, 0).toarray()
    assert len(mat) > fermion.DAVIDSON_MAX_BASIS
    w, v = np.linalg.eigh(mat)
    start = np.argsort(np.diag(mat), kind="stable")[:fermion.DAVIDSON_START]
    assert np.abs(v[start, 0]).max() < 1e-12
    e, x = exact_ground_state(spin, 2, 0)
    assert e == pytest.approx(w[0], abs=1e-10)
    assert np.linalg.norm(mat @ x - e * x) <= 1e-10


def test_non_hermitian_operator_rejected():
    # -n_0 - n_1 on 2 electrons in 4 modes, plus a lone 0.2 a_2^+ a_0
    h1 = np.diag([-1.0, -1.0, 0.0, 0.0])
    h1[2, 0] = 0.2
    with pytest.raises(SectorError, match="not Hermitian"):
        exact_ground_state(one_body_integrals(h1), 2, 0)
    h1[0, 2] = 0.2
    e, _ = exact_ground_state(one_body_integrals(h1), 2, 0)
    assert e == pytest.approx(-1.5 - np.sqrt(0.29), abs=1e-12)


def test_sector_cap_checked_before_enumerating():
    assert sector_dimension(56, 28, 0) == 40116600 ** 2
    with pytest.raises(SectorError, match="exceeds cap"):
        sector_determinants(56, 28, 0)
    with pytest.raises(SectorError, match="exceeds cap"):
        exact_ground_state(one_body_integrals(np.zeros((20, 20))), 10, 0)


def test_modes_past_a_64_bit_determinant_rejected():
    # the mode count is checked before an integral is read; the two-body
    # array is a zero-stride view, no 65^4 tensor
    m = fermion.MAX_MODES + 1
    past = SpinIntegralSet(m, np.zeros((m, m)), np.broadcast_to(0.0, (m,) * 4))
    with pytest.raises(SectorError, match="65 modes do not fit"):
        sector_hamiltonian(past, 2, 0)


def test_non_finite_sector_matrix_is_a_data_error():
    # two occupied one-body energies sum past the float range
    h1 = np.diag([1e308, 1e308])
    with pytest.raises(NonFiniteError):
        exact_ground_state(one_body_integrals(h1), 2, 0)
    # the CSR build leaves the overflow as inf, without a RuntimeWarning
    assert np.isinf(sector_hamiltonian(one_body_integrals(h1),
                                       2, 0).toarray()).all()
    h1[0, 0] = np.nan
    with pytest.raises(NonFiniteError):
        exact_ground_state(one_body_integrals(h1), 2, 0)


def _string_path(spin, dets):
    """The oracle: H as operator strings, applied to every determinant."""
    return sector_matrix(build_hamiltonian(spin), dets)


def _integrals(m, one_body, two_body, shift=0.0):
    """SpinIntegralSet from (p, q, value) and (p, q, r, s, value) entries.

    Each two-body entry is copied to (rs|pq), the one symmetry that makes
    <pq||rs> antisymmetric; neither h1 nor h2 need be Hermitian.
    """
    h1, h2 = np.zeros((m, m)), np.zeros((m,) * 4)
    for p, q, value in one_body:
        h1[p, q] = value
    for p, q, r, s, value in two_body:
        h2[p, q, r, s] = h2[r, s, p, q] = value
    return SpinIntegralSet(m, h1, h2, shift)


@pytest.mark.parametrize("name", FIXTURES)
def test_sector_hamiltonian_is_the_string_path_on_fixtures(name):
    spin = builtin_fixture(name).to_spin_orbital()
    dets = sector_determinants(8, 2, 0)
    np.testing.assert_array_equal(sector_hamiltonian(spin, 2, 0).toarray(),
                                  _string_path(spin, dets).toarray())


@pytest.mark.parametrize("n_orbitals,n_electrons,ms2", [
    (4, 2, 0), (4, 4, 0), (4, 6, 0), (5, 6, 0), (6, 6, 0), (4, 3, 1),
    (4, 3, -1), (5, 5, 1), (5, 5, -1), (4, 2, 2)])
def test_sector_hamiltonian_matches_string_path(n_orbitals, n_electrons,
                                                ms2):
    rng = np.random.default_rng(100 * n_orbitals + 10 * n_electrons + ms2)
    spin = random_integral_set(rng, n_orbitals).to_spin_orbital()
    dets = sector_determinants(2 * n_orbitals, n_electrons, ms2)
    fast = sector_hamiltonian(spin, n_electrons, ms2)
    oracle = _string_path(spin, dets)
    assert fast.nnz == np.count_nonzero(oracle.toarray())
    assert abs(fast - oracle).max() <= 1e-12


def test_sector_hamiltonian_reaches_the_top_bit():
    # the whole (2, 0) sector of 64 modes, 32 alpha x 32 beta orbitals; its
    # last determinant holds modes 62 and 63, the top bit of a uint64
    rng = np.random.default_rng(63)
    modes = (0, 1, 62, 63)
    one = [(p, q, rng.normal()) for p in modes for q in modes]
    two = [(*rng.choice(modes, 4), rng.normal()) for _ in range(12)]
    spin = _integrals(64, one, two, shift=0.5)
    dets = sector_determinants(64, 2, 0)
    assert len(dets) == 1024 and int(dets[-1]) == (1 << 62) | (1 << 63)
    fast = sector_hamiltonian(spin, 2, 0).toarray()
    assert np.count_nonzero(fast[-1]) >= 2    # a diagonal and a single
    np.testing.assert_allclose(fast, _string_path(spin, dets).toarray(),
                               rtol=0, atol=1e-12)


def test_sector_hamiltonian_prunes_as_build_hamiltonian():
    # integrals at or below PRUNE_THRESHOLD are no terms of H
    tiny = 0.9 * fermion.PRUNE_THRESHOLD
    one = [(p, q, tiny) for p in range(4) for q in range(4)] + [(0, 2, 0.3),
                                                                (2, 0, 0.3)]
    two = [(0, 2, 1, 3, tiny), (0, 0, 1, 1, tiny), (0, 2, 0, 0, tiny),
           (0, 0, 2, 2, 0.5)]
    spin = _integrals(4, one, two)
    dets = sector_determinants(4, 2, 0)
    np.testing.assert_array_equal(sector_hamiltonian(spin, 2, 0).toarray(),
                                  _string_path(spin, dets).toarray())


def _seeded(n_orbitals, n_electrons, ms2, n_modes=None, shift=0.0):
    """The seeded set of ``n_orbitals`` on its first ``n_modes`` modes."""
    spin = random_integral_set(np.random.default_rng(
        [n_orbitals, n_electrons, abs(ms2)]), n_orbitals).to_spin_orbital()
    m = n_modes or spin.n_spin_orbitals
    return SpinIntegralSet(m, spin.h1[:m, :m], spin.h2[:m, :m, :m, :m],
                           shift), n_electrons, ms2


def _dressed(n_electrons, ms2):
    """A seeded 5-orbital set downfolded onto orbitals 1-4, whose dressed
    two-body part holds Sz-conserving spin-flip pairs."""
    spin = random_integral_set(np.random.default_rng([5, 4]),
                               5).to_spin_orbital()
    t, _ = ccsd_solve(spin, 4)
    return downfold(spin, ActiveSpace.build(5, (1, 2), (3, 4)),
                    t), n_electrons, ms2


# seeded sectors of 3-6 orbitals, MS2 != 0, odd mode counts, no electrons
# and every mode filled, and a dressed set
SLATER_CONDON_CASES = {
    "3orb-4e": lambda: _seeded(3, 4, 0),
    "4orb-3e-ms1": lambda: _seeded(4, 3, 1),
    "5orb-4e-ms2": lambda: _seeded(5, 4, 2),
    "5orb-5e-ms-1": lambda: _seeded(5, 5, -1),
    "6orb-6e": lambda: _seeded(6, 6, 0),
    "7modes-3e-ms1": lambda: _seeded(4, 3, 1, n_modes=7),
    "9modes-4e": lambda: _seeded(5, 4, 0, n_modes=9),
    "4orb-0e": lambda: _seeded(4, 0, 0, shift=0.7),
    "3orb-6e": lambda: _seeded(3, 6, 0, shift=-0.3),
    "dressed-4e": lambda: _dressed(4, 0),
    "dressed-3e-ms1": lambda: _dressed(3, 1),
}


@pytest.mark.parametrize("name", SLATER_CONDON_CASES)
def test_sector_hamiltonian_is_the_slater_condon_oracle_bit_for_bit(
        monkeypatch, name):
    # every entry is the float of the documented sums, to the last bit that
    # COBYLA's evaluation counts depend on, in the CSR matrix, the dense
    # checked array and the CSR checked matrix
    spin, n_electrons, ms2 = SLATER_CONDON_CASES[name]()
    oracle = slater_condon_matrix(spin, sector_determinants(
        spin.n_spin_orbitals, n_electrons, ms2))
    mat = sector_hamiltonian(spin, n_electrons, ms2)
    assert mat.nnz == np.count_nonzero(oracle)
    np.testing.assert_array_equal(mat.toarray(), oracle)
    for limit in (fermion.DENSE_SECTOR_LIMIT, 1):
        monkeypatch.setattr(fermion, "DENSE_SECTOR_LIMIT", limit)
        got = checked_sector_hamiltonian(spin, n_electrons, ms2)
        assert sp.issparse(got) == (limit == 1)
        np.testing.assert_array_equal(got.toarray() if sp.issparse(got)
                                      else got, (oracle + oracle.T) / 2)


def _parity_zeroed(spin_ints):
    """``spin_ints`` with the integrals odd under a Z2 orbital parity (odd
    and even spatial orbitals) set to zero, as a point group does: about
    half the sector's candidate entries are then exact zeros."""
    odd = np.arange(spin_ints.n_spin_orbitals) // 2 % 2
    flip = (odd[:, None, None, None] + odd[:, None, None] + odd[:, None]
            + odd) % 2
    return replace(spin_ints, h1=np.where(odd[:, None] == odd, spin_ints.h1,
                                          0.0),
                   h2=np.where(flip == 1, 0.0, spin_ints.h2))


@pytest.mark.parametrize("parity", [False, True])
@pytest.mark.parametrize("rows", [None, 150])
def test_sector_hamiltonian_chunks_join_seamlessly(monkeypatch, rows,
                                                   parity):
    # one row at a time, or runs of at most 150 of the 400 rows, build the
    # CSR arrays of the default single run exactly, also where rows hold
    # different numbers of exact zeros
    spin, n_electrons, ms2 = _seeded(6, 6, 0)
    spin = _parity_zeroed(spin) if parity else spin
    whole = sector_hamiltonian(spin, n_electrons, ms2)
    per_row = np.diff(whole.indptr).max()
    assert parity == (np.diff(whole.indptr).min() < per_row)
    monkeypatch.setattr(fermion, "CHUNK_EXCITATIONS",
                        1 if rows is None else rows * per_row)
    split = sector_hamiltonian(spin, n_electrons, ms2)
    for part in ("indptr", "indices", "data"):
        assert getattr(split, part).dtype == getattr(whole, part).dtype
        np.testing.assert_array_equal(getattr(split, part),
                                      getattr(whole, part))
    assert split.has_sorted_indices and whole.has_sorted_indices
    dense = checked_sector_hamiltonian(spin, n_electrons, ms2)
    monkeypatch.setattr(fermion, "DENSE_SECTOR_LIMIT", 1)
    np.testing.assert_array_equal(
        checked_sector_hamiltonian(spin, n_electrons, ms2).toarray(), dense)


@pytest.mark.parametrize("parity", [False, True])
def test_sector_hamiltonian_peak_memory_is_its_csr(monkeypatch, parity):
    # the 3136 determinants of 8 orbitals and 6 electrons, built in runs of
    # 2^12 entries, never hold much more than the CSR matrix they return,
    # also when about half the candidate entries are exact zeros
    spin, n_electrons, ms2 = _seeded(8, 6, 0)
    spin = _parity_zeroed(spin) if parity else spin
    monkeypatch.setattr(fermion, "CHUNK_EXCITATIONS", 1 << 12)
    tracemalloc.start()
    try:
        mat = sector_hamiltonian(spin, n_electrons, ms2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes
    assert peak <= 1.3 * size


_VALUE = st.floats(-2.0, 2.0)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), m=st.integers(1, 6))
def test_sector_hamiltonian_property(data, m):
    """Random integral sets, spin-flipping and non-Hermitian entries
    included, in every (N, Sz) sector."""
    mode = st.integers(0, m - 1)
    one = data.draw(st.lists(st.tuples(mode, mode, _VALUE), max_size=8))
    two = data.draw(st.lists(st.tuples(mode, mode, mode, mode, _VALUE),
                             max_size=12))
    spin = _integrals(m, one, two, data.draw(_VALUE))
    n = data.draw(st.integers(0, m))
    ms2 = data.draw(st.sampled_from(range(-n, n + 1, 2)))
    dets = sector_determinants(m, n, ms2)
    if len(dets):
        np.testing.assert_allclose(
            sector_hamiltonian(spin, n, ms2).toarray(),
            _string_path(spin, dets).toarray(), rtol=0, atol=1e-12)
