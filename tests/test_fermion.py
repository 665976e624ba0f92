import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from conftest import (FIXTURES, dense_operator, one_body_integrals,
                      random_fermion_operator, random_integral_set)
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (apply_string, commutator, is_hermitian, multiply,
                     normal_order, ph_normal_order, sector_matrix)
from oracles import fock_matrix as oracle_fock_matrix
from oracles import hf_energy as oracle_hf_energy

from duccvqe import fermion
from duccvqe.ansatz import enumerate_excitations
from duccvqe.fermion import (ActiveSpace, FermionOperator, NonFiniteError,
                             SectorError, SpaceError, build_hamiltonian,
                             checked_sector_hamiltonian, exact_ground_state,
                             excitation_generator, excitation_matrix,
                             hf_determinant, hf_energy, sector_determinants,
                             sector_dimension, sector_hamiltonian)
from duccvqe.integrals import SpinIntegralSet, builtin_fixture

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
    spin = random_integral_set(np.random.default_rng(3), 2).to_spin_orbital()
    assert sector_hamiltonian(spin, []).shape == (0, 0)
    assert checked_sector_hamiltonian(spin, []).shape == (0, 0)


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
            dets = sector_determinants(spin.n_spin_orbitals, n_electrons,
                                       ms2)
            mat = sector_hamiltonian(spin, dets)
            got = checked_sector_hamiltonian(spin, dets)
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
    dets = sector_determinants(2 * n_orbitals, n_electrons, ms2)
    mat = sector_hamiltonian(spin, dets)
    dense = ((mat + mat.T) / 2).toarray()
    (e, v), (again, _) = (exact_ground_state(spin, n_electrons, ms2)
                          for _ in range(2))
    assert e == pytest.approx(np.linalg.eigvalsh(dense)[0], abs=1e-10)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(dense @ v - e * v) <= 1e-10
    # bit for bit: above DENSE_SECTOR_LIMIT eigsh starts from a fixed
    # vector, where ARPACK's own random start changes the last bits
    assert again == e


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
    # the mode count is checked before an integral is read
    past = SpinIntegralSet(fermion.MAX_MODES + 1, None, None)
    with pytest.raises(SectorError, match="65 modes do not fit"):
        sector_hamiltonian(past, [3])


def test_non_finite_sector_matrix_is_a_data_error():
    # two occupied one-body energies sum past the float range
    h1 = np.diag([1e308, 1e308])
    with pytest.raises(NonFiniteError):
        exact_ground_state(one_body_integrals(h1), 2, 0)
    # the CSR build leaves the overflow as inf, without a RuntimeWarning
    assert np.isinf(sector_hamiltonian(one_body_integrals(h1),
                                       [0b11]).toarray()).all()
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
    np.testing.assert_array_equal(sector_hamiltonian(spin, dets).toarray(),
                                  _string_path(spin, dets).toarray())


@pytest.mark.parametrize("n_orbitals,n_electrons,ms2", [
    (4, 2, 0), (4, 4, 0), (4, 6, 0), (5, 6, 0), (6, 6, 0), (4, 3, 1),
    (4, 3, -1), (5, 5, 1), (5, 5, -1), (4, 2, 2)])
def test_sector_hamiltonian_matches_string_path(n_orbitals, n_electrons,
                                                ms2):
    rng = np.random.default_rng(100 * n_orbitals + 10 * n_electrons + ms2)
    spin = random_integral_set(rng, n_orbitals).to_spin_orbital()
    dets = sector_determinants(2 * n_orbitals, n_electrons, ms2)
    fast, oracle = sector_hamiltonian(spin, dets), _string_path(spin, dets)
    assert fast.nnz == np.count_nonzero(oracle.toarray())
    assert abs(fast - oracle).max() <= 1e-12


def test_sector_hamiltonian_reaches_the_top_bit():
    # 64 modes; each determinant holds one of modes 0, 62 (alpha) and one
    # of modes 1, 63 (beta), so mode 63 is the top bit of a uint64. The
    # list leaves out 62 + 63, which lies past its last determinant.
    rng = np.random.default_rng(63)
    modes = (0, 1, 62, 63)
    one = [(p, q, rng.normal()) for p in modes for q in modes]
    two = [(*rng.choice(modes, 4), rng.normal()) for _ in range(12)]
    spin = _integrals(64, one, two, shift=0.5)
    dets = [0b11, (1 << 62) | 0b10, (1 << 63) | 0b1]
    fast = sector_hamiltonian(spin, dets).toarray()
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
    np.testing.assert_array_equal(sector_hamiltonian(spin, dets).toarray(),
                                  _string_path(spin, dets).toarray())


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
    if dets:
        np.testing.assert_allclose(
            sector_hamiltonian(spin, dets).toarray(),
            _string_path(spin, dets).toarray(), rtol=0, atol=1e-12)


def test_sector_hamiltonian_rejects_mixed_sectors():
    spin = one_body_integrals(np.zeros((4, 4)))
    with pytest.raises(SectorError, match="sector"):
        sector_hamiltonian(spin, [0b0011, 0b0101])    # MS2 0 and 2
    with pytest.raises(SectorError, match="sector"):
        sector_hamiltonian(spin, [0b0001, 0b0011])    # N 1 and N 2
