import numpy as np
import pytest
from conftest import random_integral_set

from duccvqe import simulator, vqe
from duccvqe.amplitudes import mp2_amplitudes
from duccvqe.ansatz import (ExcitationList, enumerate_excitations,
                            excitation_generator, screen_excitations,
                            trotter_circuit)
from duccvqe.fermion import (ActiveSpace, FermionOperator, build_hamiltonian,
                             exact_ground_state, hf_determinant, hf_energy,
                             sector_determinants, sector_matrix)
from duccvqe.integrals import FIXTURE_NAMES, builtin_fixture
from duccvqe.mapping import jordan_wigner
from duccvqe.vqe import VqeProblem, minimize, objective, warm_start

# one alpha single 0 -> 2 on two electrons in four modes: the state is
# cos(theta)|HF> + sin(theta)|D> with D = a_2^+ a_0 |HF>, a Y rotation of
# the two-determinant subspace
TOY_EXCITATIONS = ExcitationList(4, ((0, 2),), ())


def _y_rotation_toy():
    """H = n_0 - n_2 probed by the single 0 -> 2: E(theta) = cos 2 theta."""
    ham = FermionOperator(4, {((0, 1), (0, 0)): 1.0, ((2, 1), (2, 0)): -1.0})
    return VqeProblem(ham, TOY_EXCITATIONS, 2, np.array([0.5]))


def _fixture_problem(name, start="mp2"):
    spin = builtin_fixture(name).to_spin_orbital()
    space = ActiveSpace.build(4, (1,))
    exc = enumerate_excitations(space, 2)
    if start == "mp2":
        x0 = warm_start(mp2_amplitudes(spin, hf_determinant(2)), exc)
    else:
        x0 = np.zeros(len(exc))
    return VqeProblem(build_hamiltonian(spin), exc, 2, x0), spin, exc


def test_toy_analytic_minimum():
    problem = _y_rotation_toy()
    assert objective(problem, [0.0]) == pytest.approx(1.0, abs=1e-12)
    assert objective(problem, [np.pi / 2]) == pytest.approx(-1.0, abs=1e-12)
    res = minimize(problem)
    assert res.converged
    assert res.energy == pytest.approx(-1.0, abs=1e-9)
    assert abs(abs(res.params[0]) - np.pi / 2) < 1e-4


def test_zero_hamiltonian_trivial():
    problem = VqeProblem(FermionOperator.zero(4), TOY_EXCITATIONS, 2,
                         np.array([0.2]))
    res = minimize(problem)
    assert res.energy == 0.0
    assert res.converged


def test_objective_at_zero_is_hf():
    problem, spin, _ = _fixture_problem("h2_ducc_1.4008", start="zero")
    e0 = objective(problem, np.zeros(len(problem.excitations)))
    assert e0 == pytest.approx(hf_energy(spin, hf_determinant(2)), abs=1e-10)


def test_variational_bound(rng):
    problem, spin, _ = _fixture_problem("h2_ducc_4.0", start="zero")
    e_exact, _ = exact_ground_state(build_hamiltonian(spin), 2, 0)
    for _ in range(5):
        theta = 0.2 * rng.normal(size=len(problem.excitations))
        assert objective(problem, theta) >= e_exact - 1e-9


def test_minimize_reaches_exact_diagonalization():
    problem, spin, _ = _fixture_problem("h2_ducc_1.4008")
    res = minimize(problem)
    e_exact, _ = exact_ground_state(build_hamiltonian(spin), 2, 0)
    assert res.converged
    assert abs(res.energy - e_exact) <= 1e-4
    # returned energy is reproducible from the returned point
    assert objective(problem, res.params) == pytest.approx(res.energy,
                                                           abs=1e-12)
    # best-so-far trace is strictly decreasing by construction
    energies = [e for _, e in res.trace]
    assert all(a > b for a, b in zip(energies, energies[1:]))


def test_determinism():
    problem1, _, _ = _fixture_problem("h2_ducc_0.8")
    problem2, _, _ = _fixture_problem("h2_ducc_0.8")
    r1, r2 = minimize(problem1), minimize(problem2)
    assert r1.n_evaluations == r2.n_evaluations
    assert r1.energy == pytest.approx(r2.energy, abs=1e-12)
    assert len(r1.trace) == len(r2.trace)


def test_warm_start_vector_layout():
    _, spin, exc = _fixture_problem("h2_ducc_1.4008")
    t = mp2_amplitudes(spin, hf_determinant(2))
    x0 = warm_start(t, exc)
    assert x0.shape == (len(exc),)
    # MP2 has no singles; doubles land in their slots with canonical sign
    assert np.all(x0[:len(exc.singles)] == 0.0)
    for slot, key in enumerate(exc.entries):
        if len(key) == 4:
            assert x0[slot] == t.get_t2(*key)
    from duccvqe.amplitudes import ClusterAmplitudes
    empty = ClusterAmplitudes.empty((0, 1), tuple(range(2, 8)))
    assert np.all(warm_start(empty, exc) == 0.0)


def test_mismatched_problem_rejected():
    ham = FermionOperator.zero(4)
    with pytest.raises(vqe.VqeError, match="mode"):
        VqeProblem(FermionOperator.zero(6), TOY_EXCITATIONS, 2, [0.0])
    with pytest.raises(vqe.VqeError, match="Hartree-Fock"):
        VqeProblem(ham, TOY_EXCITATIONS, 3, [0.0])
    with pytest.raises(vqe.VqeError, match="initial"):
        VqeProblem(ham, TOY_EXCITATIONS, 2, np.array([0.0, 1.0]))
    with pytest.raises(vqe.VqeError, match="finite"):
        VqeProblem(ham, TOY_EXCITATIONS, 2, np.array([np.nan]))
    hop = FermionOperator.from_term(4, ((2, 1), (0, 0)))  # no h.c. partner
    with pytest.raises(vqe.VqeError, match="symmetric"):
        VqeProblem(hop, TOY_EXCITATIONS, 2, [0.0])
    with pytest.raises(vqe.VqeError, match="budget"):
        VqeProblem(ham, TOY_EXCITATIONS, 2, [0.0], max_evaluations=0)
    problem = VqeProblem(ham, TOY_EXCITATIONS, 2, [0.0])
    with pytest.raises(vqe.VqeError, match="parameters"):
        objective(problem, [0.0, 0.0])


def _oracle_cases():
    """(Hamiltonian, excitations, electrons) cases for the oracle test."""
    rng = np.random.default_rng(4)
    cases = []
    full = enumerate_excitations(ActiveSpace.build(4, (1,)), 2)
    for name in FIXTURE_NAMES:
        spin = builtin_fixture(name).to_spin_orbital()
        cases.append(pytest.param(build_hamiltonian(spin), full, 2, id=name))
    for n_orb in (3, 4):
        spin = random_integral_set(rng, n_orb).to_spin_orbital()
        exc = enumerate_excitations(ActiveSpace.build(n_orb, (1, 2)), 4)
        cases.append(pytest.param(build_hamiltonian(spin), exc, 4,
                                  id=f"random_{n_orb}orb"))
    spin = builtin_fixture("h2_ducc_1.4008").to_spin_orbital()
    screened = screen_excitations(
        full, mp2_amplitudes(spin, hf_determinant(2)), 1e-2)
    assert 0 < len(screened.doubles) < len(full.doubles)
    cases.append(pytest.param(build_hamiltonian(spin), screened, 2,
                              id="screened"))
    cases.append(pytest.param(build_hamiltonian(spin),
                              ExcitationList(8, (), ()), 2,
                              id="no_excitations"))
    return cases


@pytest.mark.parametrize("ham,exc,nelec", _oracle_cases())
def test_objective_matches_circuit_oracle(rng, ham, exc, nelec):
    """The sector product equals the Trotter circuit run on the 2^n state
    vector and measured with the Jordan-Wigner Hamiltonian."""
    problem = VqeProblem(ham, exc, nelec, np.zeros(len(exc)))
    circ = trotter_circuit(exc)
    qubit_h = jordan_wigner(ham).real()
    ref = simulator.prepare_reference(exc.n_spin_orbitals, range(nelec))
    for _ in range(20):
        theta = rng.uniform(-np.pi, np.pi, size=len(exc))
        want = simulator.expectation(qubit_h,
                                     simulator.apply(circ, theta, ref))
        assert objective(problem, theta) == pytest.approx(want, abs=1e-10)


def test_generator_cubes_to_minus_itself():
    exc = enumerate_excitations(ActiveSpace.build(3, (1, 2)), 4)
    dets = sector_determinants(6, 4, 0)
    for key in exc.entries:
        kappa = sector_matrix(excitation_generator(key, 6), dets).toarray()
        assert np.any(kappa)
        np.testing.assert_array_equal(kappa @ kappa @ kappa, -kappa)


def test_result_json_round_trip():
    import json
    res = minimize(_y_rotation_toy())
    blob = json.loads(res.to_json())
    assert blob["converged"] is True
    assert blob["energy"] == pytest.approx(-1.0, abs=1e-9)
    assert blob["n_evaluations"] == res.n_evaluations
    assert len(blob["trace"]) == len(res.trace)
