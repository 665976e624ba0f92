import numpy as np
import pytest
from conftest import (dense_operator, random_fermion_operator,
                      random_integral_set)
from oracles import (_tensors, active_cut, bracket, commutator,
                     commutator_expand, full_tensor_downfold, normal_order,
                     project_active, sigma_ext_operator)

from duccvqe import ducc
from duccvqe.amplitudes import (ClusterAmplitudes, ccsd_solve,
                                mp2_amplitudes)
from duccvqe.ducc import bare_restriction, downfold
from duccvqe.fermion import (ActiveSpace, SpaceError, build_hamiltonian,
                             exact_ground_state, fock_matrix, hf_determinant)
from duccvqe.integrals import (SpinIntegralSet, builtin_fixture,
                               load_spin_fcidump, read_fcidump,
                               save_spin_fcidump)

FULL_SPACE = ActiveSpace.build(4, (1,))
HALF_SPACE = ActiveSpace.build(4, (1,), (2,))


def _fixture_setup(name):
    spin = builtin_fixture(name).to_spin_orbital()
    t, _ = ccsd_solve(spin, 2)
    return spin, t


def test_downfold_rejects_a_space_of_another_reference():
    # amplitudes on the reference of orbital 1, a space occupying orbital 2
    spin, t = _fixture_setup("h2_ducc_1.4008")
    with pytest.raises(SpaceError, match="occupied modes"):
        downfold(spin, ActiveSpace.build(4, (2,), (1,)), t)


def test_sigma_ext_antihermitian():
    spin, t = _fixture_setup("h2_ducc_1.4008")
    sigma = sigma_ext_operator(t, HALF_SPACE, spin.n_spin_orbitals)
    dense = dense_operator(sigma)
    np.testing.assert_allclose(dense, -dense.conj().T, atol=1e-12)


def test_sigma_zero_for_full_active_space():
    spin, t = _fixture_setup("h2_ducc_1.4008")
    sigma = sigma_ext_operator(t, FULL_SPACE, spin.n_spin_orbitals)
    assert len(sigma) == 0


def test_commutator_expand_dense_oracle(rng):
    # H + [H,s] + 1/2 [[F,s],s] against raw dense matrix algebra
    for _ in range(10):
        n = 4
        h = random_fermion_operator(rng, n, 5, hermitian=True)
        f = random_fermion_operator(rng, n, 3, hermitian=True)
        s = random_fermion_operator(rng, n, 3)
        s = s - s.dagger()
        out = commutator_expand(h, f, s)
        dh, df, ds = dense_operator(h), dense_operator(f), dense_operator(s)
        inner = df @ ds - ds @ df
        oracle = dh + (dh @ ds - ds @ dh) \
            + 0.5 * (inner @ ds - ds @ inner)
        np.testing.assert_allclose(dense_operator(out), oracle, atol=1e-9)


def test_sigma_zero_reduces_to_bare_restriction():
    spin, t = _fixture_setup("h2_ducc_4.0")
    # every virtual is active: no amplitude is external
    sigma = sigma_ext_operator(t, FULL_SPACE, spin.n_spin_orbitals)
    h = build_hamiltonian(spin)
    m = spin.n_spin_orbitals
    f = build_hamiltonian(SpinIntegralSet(
        m, fock_matrix(spin, hf_determinant(2)), np.zeros((m,) * 4)))
    h_bar = commutator_expand(h, f, sigma)
    dh = project_active(h_bar, HALF_SPACE, hf_determinant(2))
    bare = bare_restriction(spin, HALF_SPACE)
    np.testing.assert_allclose(dh.h1, bare.h1, atol=1e-12)
    np.testing.assert_allclose(dh.antisymmetrized(), bare.antisymmetrized(),
                               atol=1e-12)
    assert dh.scalar_shift == pytest.approx(bare.scalar_shift, abs=1e-12)


def test_full_active_space_is_spectrum_identical():
    for name in ("h2_ducc_0.8", "h2_ducc_10.0"):
        spin, t = _fixture_setup(name)
        dh = downfold(spin, FULL_SPACE, t)
        e_down, _ = exact_ground_state(dh, 2, 0)
        e_fci, _ = exact_ground_state(spin, 2, 0)
        assert e_down == pytest.approx(e_fci, abs=1e-9)


def test_chi2_antisymmetry_and_hermiticity():
    spin, t = _fixture_setup("h2_ducc_1.4008")
    dh = downfold(spin, HALF_SPACE, t)
    chi2 = dh.antisymmetrized()
    np.testing.assert_allclose(chi2, -chi2.transpose(1, 0, 2, 3), atol=1e-12)
    np.testing.assert_allclose(chi2, -chi2.transpose(0, 1, 3, 2), atol=1e-12)
    np.testing.assert_allclose(chi2, chi2.transpose(2, 3, 0, 1), atol=1e-10)
    np.testing.assert_allclose(dh.h1, dh.h1.T, atol=1e-10)


def test_chi_round_trip_through_operator():
    spin, t = _fixture_setup("h2_ducc_1.4008")
    dh = downfold(spin, HALF_SPACE, t)
    rebuilt = normal_order(build_hamiltonian(dh))
    dh2 = project_active(rebuilt, ActiveSpace.build(2, (1,)),
                         hf_determinant(2))
    np.testing.assert_allclose(dh2.h1, dh.h1, atol=1e-10)
    np.testing.assert_allclose(dh2.antisymmetrized(), dh.antisymmetrized(),
                               atol=1e-10)


def test_spin_integral_serialization_preserves_spectrum(tmp_path):
    spin, t = _fixture_setup("h2_ducc_10.0")
    dh = downfold(spin, HALF_SPACE, t)
    e_direct, _ = exact_ground_state(dh, 2, 0)
    path = tmp_path / "down.fcidump"
    save_spin_fcidump(dh, path, 2)
    assert isinstance(read_fcidump(path)[0], SpinIntegralSet)
    back = load_spin_fcidump(path)
    e_loaded, _ = exact_ground_state(back, 2, 0)
    assert e_loaded == pytest.approx(e_direct, abs=1e-10)


def test_downfolding_beats_bare_on_fixtures():
    wins = 0
    for name in ("h2_ducc_0.8", "h2_ducc_1.4008", "h2_ducc_4.0",
                 "h2_ducc_10.0"):
        spin, t = _fixture_setup(name)
        e_fci, _ = exact_ground_state(spin, 2, 0)
        e_ducc, _ = exact_ground_state(downfold(spin, HALF_SPACE, t), 2, 0)
        e_bare, _ = exact_ground_state(
            bare_restriction(spin, HALF_SPACE), 2, 0)
        if abs(e_ducc - e_fci) < abs(e_bare - e_fci):
            wins += 1
    assert wins == 4


def test_downfold_random_systems_improve(rng):
    errors = []
    for _ in range(6):
        ints = random_integral_set(rng, 4, noise=0.15)
        spin = ints.to_spin_orbital()
        t, _ = ccsd_solve(spin, 2)
        e_fci, _ = exact_ground_state(spin, 2, 0)
        e_ducc, _ = exact_ground_state(downfold(spin, HALF_SPACE, t), 2, 0)
        e_bare, _ = exact_ground_state(
            bare_restriction(spin, HALF_SPACE), 2, 0)
        errors.append((abs(e_ducc - e_fci), abs(e_bare - e_fci)))
    med = np.median(np.array(errors), axis=0)
    assert med[0] < med[1]


def _unpruned_downfold(spin, space, t):
    """downfold with every string of both commutators formed (the oracle)."""
    ref = hf_determinant(2 * len(space.occupied))
    h = build_hamiltonian(spin)
    m = spin.n_spin_orbitals
    f = build_hamiltonian(SpinIntegralSet(m, fock_matrix(spin, ref),
                                          np.zeros((m,) * 4)))
    sigma = sigma_ext_operator(t, space, m)
    return project_active(commutator_expand(h, f, sigma), space, ref)


def test_downfold_matches_unpruned_expansion(rng):
    cases = [(*_fixture_setup(name), HALF_SPACE)
             for name in ("h2_ducc_0.8", "h2_ducc_1.4008", "h2_ducc_4.0",
                          "h2_ducc_10.0")]
    for n_orbitals, n_electrons, occupied, active_virtual in (
            (4, 2, (1,), (2,)), (5, 2, (1,), (2,)), (4, 4, (1, 2), (3,)),
            (5, 2, (1,), (3, 5)), (5, 4, (1, 2), (3, 4))):
        spin = random_integral_set(rng, n_orbitals,
                                   noise=0.15).to_spin_orbital()
        t, _ = ccsd_solve(spin, n_electrons)
        cases.append((spin, t, ActiveSpace.build(n_orbitals, occupied,
                                                 active_virtual)))
    for spin, t, space in cases:
        dh = downfold(spin, space, t)
        oracle = _unpruned_downfold(spin, space, t)
        np.testing.assert_allclose(dh.h1, oracle.h1, rtol=0, atol=1e-12)
        np.testing.assert_allclose(dh.antisymmetrized(),
                                   oracle.antisymmetrized(), rtol=0,
                                   atol=1e-12)
        assert dh.scalar_shift == pytest.approx(oracle.scalar_shift, abs=1e-12)


def test_sigma_ext_tensors_match_operator_oracle(rng):
    cases = [(builtin_fixture(name).to_spin_orbital(), 2, HALF_SPACE)
             for name in ("h2_ducc_0.8", "h2_ducc_1.4008", "h2_ducc_4.0",
                          "h2_ducc_10.0")]
    for n_orbitals, n_electrons, occupied, active_virtual in (
            (5, 2, (1,), (3, 5)), (5, 4, (1, 2), (3,)),
            (6, 4, (1, 2), (3, 4)), (6, 6, (1, 2, 3), (5,))):
        spin = random_integral_set(rng, n_orbitals, gap=3.0,
                                   noise=0.15).to_spin_orbital()
        cases.append((spin, n_electrons, ActiveSpace.build(
            n_orbitals, occupied, active_virtual)))
    amplitude_sets = []
    for spin, n_electrons, space in cases:
        amplitude_sets += [(ccsd_solve(spin, n_electrons)[0], space),
                           (mp2_amplitudes(spin, n_electrons), space)]
    # pruning: below the threshold, at it, above it, and NaN kept
    t = ClusterAmplitudes.empty(2, 8)
    t.set_t1(0, 4, 1e-13)
    t.set_t1(1, 5, -1e-12)
    t.set_t1(0, 6, 2e-12)
    t.set_t2(0, 1, 2, 5, np.nan)
    t.set_t2(0, 1, 4, 7, 0.25)
    amplitude_sets.append((t, HALF_SPACE))
    for t, space in amplitude_sets:
        m = len(t.occupied) + len(t.virtual)
        got = ducc._sigma_ext(t, space, m)
        oracle = _tensors(sigma_ext_operator(t, space, m), m)
        for mine, want in zip(got, oracle):
            assert np.array_equal(mine, want, equal_nan=True)


def _random_operator(rng, m):
    """Dense random non-Hermitian one- plus two-body operator."""
    x2 = rng.normal(size=(m,) * 4)
    x2 = x2 - x2.transpose(1, 0, 2, 3)
    x2 = x2 - x2.transpose(0, 1, 3, 2)
    return SpinIntegralSet(m, rng.normal(size=(m, m)),
                           0.5 * np.einsum("prqs->pqrs", x2), rng.normal())


def test_bracket_matches_string_commutator(rng):
    # general operators, not only the sigma_ext shapes downfold meets
    for n_orbitals, occupied in ((2, (1,)), (2, (1, 2))):
        space = ActiveSpace.build(n_orbitals, occupied)
        a, b = (_random_operator(rng, 2 * n_orbitals) for _ in range(2))
        n, a_n = ducc._reference(a, space)
        got = ducc._active_block(
            ducc._bracket(a_n, ducc._reference(b, space)[1], n), space)
        oracle = project_active(
            commutator(build_hamiltonian(a), build_hamiltonian(b)), space,
            hf_determinant(2 * len(occupied)))
        np.testing.assert_allclose(got.h1, oracle.h1, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.antisymmetrized(),
                                   oracle.antisymmetrized(), rtol=0,
                                   atol=1e-12)
        assert got.scalar_shift == pytest.approx(oracle.scalar_shift,
                                                 abs=1e-12)


def test_six_orbital_four_electron_downfold_improves(rng):
    space = ActiveSpace.build(6, (1, 2), (3,))
    spin = random_integral_set(rng, 6, noise=0.15).to_spin_orbital()
    t, _ = ccsd_solve(spin, 4)
    e_fci, _ = exact_ground_state(spin, 4, 0)
    e_ducc, _ = exact_ground_state(downfold(spin, space, t), 4, 0)
    e_bare, _ = exact_ground_state(bare_restriction(spin, space), 4, 0)
    assert abs(e_ducc - e_fci) < abs(e_bare - e_fci)


def test_dressed_hamiltonian_metadata():
    spin, t = _fixture_setup("h2_ducc_0.8")
    dh = downfold(spin, HALF_SPACE, t)
    assert dh.n_spin_orbitals == 4
    # chemists storage keeps the dressed 4-element symmetry group
    g = dh.h2
    np.testing.assert_allclose(g, g.transpose(1, 0, 3, 2), atol=1e-10)
    np.testing.assert_allclose(g, g.transpose(2, 3, 0, 1), atol=1e-10)


def _assert_parts_close(got, want):
    for mine, oracle in zip(got, want):
        np.testing.assert_allclose(mine, oracle, rtol=0, atol=1e-12)


def _full_tensor_cases():
    """(spin integrals, CCSD amplitudes, active space): the fixtures and
    seeded 2-, 4- and 6-electron systems, most with two active virtuals."""
    cases = [(*_fixture_setup(name), HALF_SPACE)
             for name in ("h2_ducc_0.8", "h2_ducc_1.4008", "h2_ducc_4.0",
                          "h2_ducc_10.0")]
    for n_orbitals, n_electrons, occupied, active_virtual in (
            (4, 2, (1,), (2,)), (5, 2, (1,), (2, 4)), (5, 4, (1, 2), (3, 5)),
            (6, 4, (1, 2), (4,)), (6, 6, (1, 2, 3), (4, 5))):
        rng = np.random.default_rng(10 * n_orbitals + n_electrons)
        spin = random_integral_set(rng, n_orbitals, gap=3.0,
                                   noise=0.15).to_spin_orbital()
        t, _ = ccsd_solve(spin, n_electrons)
        cases.append((spin, t, ActiveSpace.build(n_orbitals, occupied,
                                                 active_virtual)))
    return cases


def test_sliced_downfold_matches_full_tensor_oracle():
    for spin, t, space in _full_tensor_cases():
        n, h_n = ducc._reference(spin, space)
        act = np.array(space.active_spin)
        sigma = ducc._sigma_ext(t, space, spin.n_spin_orbitals)
        inner = ducc._bracket((0.0, h_n[1], None), sigma, n)
        _assert_parts_close(inner, bracket((0.0, h_n[1], None), sigma, n))
        for a in (h_n, inner):
            _assert_parts_close(ducc._bracket(a, sigma, n, act),
                                active_cut(bracket(a, sigma, n), space))
        dh, oracle = downfold(spin, space, t), full_tensor_downfold(
            spin, space, t)
        np.testing.assert_allclose(dh.h1, oracle.h1, rtol=0, atol=1e-12)
        np.testing.assert_allclose(dh.h2, oracle.h2, rtol=0, atol=1e-12)
        assert dh.scalar_shift == pytest.approx(oracle.scalar_shift,
                                                abs=1e-12)
        bare = bare_restriction(spin, space)
        want = ducc._active_block(active_cut(h_n, space), space)
        assert np.array_equal(bare.h1, want.h1)
        assert np.array_equal(bare.h2, want.h2)
        assert bare.scalar_shift == want.scalar_shift


def test_sliced_bracket_of_dense_operators_matches_oracle(rng):
    # dense operators fill every block that the sigma_ext shapes leave zero
    for n_orbitals, occupied, active_virtual in (
            (3, (1,), (3,)), (4, (1, 2), (3,)), (4, (1,), (2, 4))):
        space = ActiveSpace.build(n_orbitals, occupied, active_virtual)
        n, a = ducc._reference(_random_operator(rng, 2 * n_orbitals), space)
        b = ducc._reference(_random_operator(rng, 2 * n_orbitals), space)[1]
        act = np.array(space.active_spin)
        for x, y in ((a, b), (a, (0.0, b[1], None)), ((0.0, a[1], None), b)):
            _assert_parts_close(ducc._bracket(x, y, n, act),
                                active_cut(bracket(x, y, n), space))
