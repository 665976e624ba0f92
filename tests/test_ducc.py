import numpy as np
import pytest
from conftest import (dense_operator, random_fermion_operator,
                      random_integral_set)

from duccvqe import ducc
from duccvqe.amplitudes import ccsd_solve, partition
from duccvqe.ducc import (bare_restriction, commutator_expand, downfold,
                          project_active, sigma_ext_operator)
from duccvqe.fermion import (ActiveSpace, build_hamiltonian,
                             exact_ground_state, fock_operator,
                             hf_determinant, normal_order)
from duccvqe.integrals import (builtin_fixture, is_spin_resolved,
                               load_spin_fcidump, save_spin_fcidump)

FULL_SPACE = ActiveSpace.build(4, (1,))
HALF_SPACE = ActiveSpace.build(4, (1,), (2,))


def _fixture_setup(name):
    spin = builtin_fixture(name).to_spin_orbital()
    t, _ = ccsd_solve(spin, hf_determinant(2))
    return spin, t


def test_sigma_ext_antihermitian():
    spin, t = _fixture_setup("h2_ducc_1.4008")
    sigma = sigma_ext_operator(partition(t, HALF_SPACE), spin.n_spin_orbitals)
    dense = dense_operator(sigma)
    np.testing.assert_allclose(dense, -dense.conj().T, atol=1e-12)


def test_sigma_zero_for_full_active_space():
    spin, t = _fixture_setup("h2_ducc_1.4008")
    sigma = sigma_ext_operator(partition(t, FULL_SPACE), spin.n_spin_orbitals)
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
    empty = partition(t, FULL_SPACE)  # external side is empty
    sigma = sigma_ext_operator(empty, spin.n_spin_orbitals)
    h = build_hamiltonian(spin)
    f = fock_operator(spin, hf_determinant(2))
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
        e_down, _ = exact_ground_state(build_hamiltonian(dh), 2, 0)
        e_fci, _ = exact_ground_state(build_hamiltonian(spin), 2, 0)
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
    e_direct, _ = exact_ground_state(build_hamiltonian(dh), 2, 0)
    path = tmp_path / "down.fcidump"
    save_spin_fcidump(dh, path, 2)
    assert is_spin_resolved(path)
    back = load_spin_fcidump(path)
    e_loaded, _ = exact_ground_state(build_hamiltonian(back), 2, 0)
    assert e_loaded == pytest.approx(e_direct, abs=1e-10)


def test_downfolding_beats_bare_on_fixtures():
    wins = 0
    for name in ("h2_ducc_0.8", "h2_ducc_1.4008", "h2_ducc_4.0",
                 "h2_ducc_10.0"):
        spin, t = _fixture_setup(name)
        e_fci, _ = exact_ground_state(build_hamiltonian(spin), 2, 0)
        e_ducc, _ = exact_ground_state(
            build_hamiltonian(downfold(spin, HALF_SPACE, t)), 2, 0)
        e_bare, _ = exact_ground_state(
            build_hamiltonian(bare_restriction(spin, HALF_SPACE)), 2, 0)
        if abs(e_ducc - e_fci) < abs(e_bare - e_fci):
            wins += 1
    assert wins == 4


def test_downfold_random_systems_improve(rng):
    errors = []
    for _ in range(6):
        ints = random_integral_set(rng, 4, noise=0.15)
        spin = ints.to_spin_orbital()
        t, _ = ccsd_solve(spin, hf_determinant(2))
        e_fci, _ = exact_ground_state(build_hamiltonian(spin), 2, 0)
        e_ducc, _ = exact_ground_state(
            build_hamiltonian(downfold(spin, HALF_SPACE, t)), 2, 0)
        e_bare, _ = exact_ground_state(
            build_hamiltonian(bare_restriction(spin, HALF_SPACE)), 2, 0)
        errors.append((abs(e_ducc - e_fci), abs(e_bare - e_fci)))
    med = np.median(np.array(errors), axis=0)
    assert med[0] < med[1]


def _unpruned_downfold(spin, space, t):
    """downfold with every string of both commutators formed (the oracle)."""
    ref = hf_determinant(2 * len(space.occupied))
    h = build_hamiltonian(spin)
    sigma = sigma_ext_operator(partition(t, space), h.n_modes)
    h_bar = commutator_expand(h, fock_operator(spin, ref), sigma)
    return project_active(h_bar, space, ref)


def test_downfold_matches_unpruned_expansion(rng):
    cases = [(*_fixture_setup(name), HALF_SPACE)
             for name in ("h2_ducc_0.8", "h2_ducc_1.4008", "h2_ducc_4.0",
                          "h2_ducc_10.0")]
    for n_orbitals in (4, 5):
        spin = random_integral_set(rng, n_orbitals,
                                   noise=0.15).to_spin_orbital()
        t, _ = ccsd_solve(spin, hf_determinant(2))
        cases.append((spin, t, ActiveSpace.build(n_orbitals, (1,), (2,))))
    for spin, t, space in cases:
        dh = downfold(spin, space, t)
        oracle = _unpruned_downfold(spin, space, t)
        np.testing.assert_allclose(dh.h1, oracle.h1, rtol=0, atol=1e-12)
        np.testing.assert_allclose(dh.antisymmetrized(),
                                   oracle.antisymmetrized(), rtol=0,
                                   atol=1e-12)
        assert dh.scalar_shift == pytest.approx(oracle.scalar_shift, abs=1e-12)


def test_six_orbital_four_electron_downfold_improves(rng):
    space = ActiveSpace.build(6, (1, 2), (3,))
    spin = random_integral_set(rng, 6, noise=0.15).to_spin_orbital()
    t, _ = ccsd_solve(spin, hf_determinant(4))
    e_fci, _ = exact_ground_state(build_hamiltonian(spin), 4, 0)
    e_ducc, _ = exact_ground_state(
        build_hamiltonian(downfold(spin, space, t)), 4, 0)
    e_bare, _ = exact_ground_state(
        build_hamiltonian(bare_restriction(spin, space)), 4, 0)
    assert abs(e_ducc - e_fci) < abs(e_bare - e_fci)


def test_dressed_hamiltonian_metadata():
    spin, t = _fixture_setup("h2_ducc_0.8")
    dh = downfold(spin, HALF_SPACE, t)
    assert dh.n_spin_orbitals == 4
    assert dh.label == "ducc"
    # chemists storage keeps the dressed 4-element symmetry group
    g = dh.h2
    np.testing.assert_allclose(g, g.transpose(1, 0, 3, 2), atol=1e-10)
    np.testing.assert_allclose(g, g.transpose(2, 3, 0, 1), atol=1e-10)
