"""Acceptance gate: the eight headline criteria, one pass/fail line each.

Lines are written to the real stdout so they survive pytest capture.
Expensive VQE runs are shared across criteria through module-scoped
fixtures.
"""

import sys
import time

import numpy as np
import oracles
import pytest
from conftest import (dense_operator, random_fermion_operator,
                      random_integral_set)

from duccvqe import ducc, simulator
from duccvqe.amplitudes import ccsd_solve, mp2_amplitudes
from duccvqe.ansatz import enumerate_excitations, trotter_circuit
from duccvqe.cli import EXIT_OK, main as cli_main
from duccvqe.fermion import (ActiveSpace, build_hamiltonian,
                             exact_ground_state, hf_determinant, hf_energy)
from duccvqe.integrals import FIXTURE_NAMES, builtin_fixture
from duccvqe.mapping import jordan_wigner
from duccvqe.vqe import VqeProblem, minimize, objective, warm_start

GEOMETRIES = list(FIXTURE_NAMES)

# published resource table: (spatial orbitals, electrons, all excitations)
RESOURCE_ROWS = [
    (4, 2, 15), (5, 2, 24), (6, 2, 35), (7, 2, 48), (8, 2, 63),
    (9, 2, 80), (10, 2, 99),
    (7, 6, 204), (8, 6, 315), (9, 6, 450), (10, 6, 609), (11, 6, 792),
    (12, 6, 999), (13, 6, 1230), (14, 6, 1485),
]

# published optimal parameters per geometry, already reordered into this
# package's canonical excitation-slot order (transposition signs applied
# where the published label lists the beta virtual first)
PUBLISHED_PARAMS = {
    "h2_ducc_0.8": [
        -0.00169188, 0.00123214, -0.00073229, 0.00065677, 0.00087783,
        0.00074183,
        -0.01179497, -0.00039156, -0.01812841, 0.00031383, 0.01874083,
        -0.0294424, -0.00046086, 0.00016563, -0.0311721],
    "h2_ducc_1.4008": [
        0.00021634, 0.00672613, 0.00010555, 0.00004992, 0.00694961,
        -0.00039769,
        -0.039163, 0.00015069, -0.0438853, 0.00052074, 0.04455011,
        -0.03458878, 0.000494, -0.00001072, -0.05625665],
    "h2_ducc_4.0": [
        0.0117512, 0.0704723, 0.00216901, -0.01133357, 0.06994873,
        -0.00241246,
        -0.48799278, 0.000216463, -0.12975184, 0.00085024, 0.13145439,
        -0.0117965, 0.00071524, -0.00024277, -0.03546193],
    "h2_ducc_10.0": [
        -0.05214657, 0.10784842, -0.00748003, 0.05239833, 0.01074307,
        0.00747299,
        -0.77241219, -0.00283207, -0.14512297, -0.00259242, 0.14748198,
        0.00736854, 0.00102053, 0.00042897, -0.02136681],
}

# the 10 a.u. column's 1b->3b entry breaks the near-degeneracy with its
# 1a->3a partner seen at every other geometry; a dropped leading digit
# (0.01074307 vs 0.1074307) restores it. Reported diagnostically.
TYPO_CANDIDATE = ("h2_ducc_10.0", 4, 0.1074307)


ACCEPTANCE_LOG = []


def _report(line):
    # kept for the end-of-session summary (conftest prints it uncaptured)
    ACCEPTANCE_LOG.append(line)
    print(line, file=sys.__stdout__, flush=True)


def _check(criterion, ok, detail):
    _report(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def vqe_runs():
    """MP2-warm-started UCCSD VQE on every bundled geometry."""
    space = ActiveSpace.build(4, (1,))
    exc = enumerate_excitations(space)
    runs = {}
    for name in GEOMETRIES:
        spin = builtin_fixture(name).to_spin_orbital()
        x0 = warm_start(mp2_amplitudes(spin, 2), exc)
        problem = VqeProblem(spin, exc, 2, x0)
        t0 = time.time()
        result = minimize(problem)
        e_exact, _ = exact_ground_state(spin, 2, 0)
        runs[name] = {"problem": problem, "result": result,
                      "e_exact": e_exact, "seconds": time.time() - t0,
                      "spin": spin, "exc": exc}
    return runs


def test_criterion_1_resource_table(capsys):
    t0 = time.time()
    failures = []
    for n_orb, nelec, want in RESOURCE_ROWS:
        code = cli_main(["resources", "--orbitals", str(n_orb),
                         "--electrons", str(nelec), "--format", "csv"])
        out = capsys.readouterr().out
        header, row = out.strip().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        if code != EXIT_OK or int(cells["n_qubits"]) != 2 * n_orb \
                or int(cells["excitations"]) != want:
            failures.append((n_orb, nelec, cells))
    elapsed = time.time() - t0
    _check(1, not failures and elapsed < 1.0,
           f"15 resource rows exact (qubits + excitation counts), "
           f"{elapsed:.2f} s")


def test_criterion_2_fixture_vqe(vqe_runs):
    details = []
    ok = True
    for name in GEOMETRIES:
        run = vqe_runs[name]
        diff = abs(run["result"].energy - run["e_exact"])
        ok &= diff <= 1e-4 and run["seconds"] < 300.0
        details.append(f"{name}: |dE|={diff:.1e} in {run['seconds']:.0f}s")
    _check(2, ok, "UCCSD VQE vs exact diagonalization; " + "; ".join(details))


@pytest.mark.parametrize("name", GEOMETRIES)
def test_criterion_3_published_parameters(vqe_runs, name):
    run = vqe_runs[name]
    params = np.array(PUBLISHED_PARAMS[name])
    diff = objective(run["problem"], params) - run["result"].energy
    detail = f"{name}: E(published params) - E_min = {diff:.2e}"
    typo_name, slot, fixed = TYPO_CANDIDATE
    if name == typo_name:
        corrected = params.copy()
        corrected[slot] = fixed
        diff_fixed = objective(run["problem"], corrected) \
            - run["result"].energy
        detail += (f" (diagnostic: correcting the anomalous 1b->3b entry "
                   f"to {fixed} gives {diff_fixed:.2e})")
    _check(3, abs(diff) <= 1e-4, detail)


def test_criterion_4_warm_start_evaluation_counts(vqe_runs):
    run = vqe_runs["h2_ducc_1.4008"]
    warm_evals = run["result"].n_evaluations
    zero = VqeProblem(run["problem"].integrals, run["problem"].excitations,
                      2, np.zeros(15))
    zero_evals = minimize(zero).n_evaluations
    ok = 100 <= warm_evals < 5000 and zero_evals > warm_evals
    _check(4, ok, f"warm start {warm_evals} evaluations "
                  f"(O(1e2)-low O(1e3)), zero start {zero_evals} (strictly "
                  f"more)")


def test_criterion_5_ccsd_equals_fci(rng):
    t0 = time.time()
    worst = 0.0
    for k in range(10):
        n_orb = 3 + k % 4  # 3..6 spatial orbitals
        spin = random_integral_set(rng, n_orb).to_spin_orbital()
        ref = hf_determinant(2)
        _, e_corr = ccsd_solve(spin, 2)
        e_fci, _ = exact_ground_state(spin, 2, 0)
        worst = max(worst, abs(hf_energy(spin, ref) + e_corr - e_fci))
    elapsed = time.time() - t0
    _check(5, worst <= 1e-8 and elapsed < 60.0,
           f"10 randomized 2-electron systems, worst |E_CCSD - E_FCI| = "
           f"{worst:.1e}, {elapsed:.0f} s")


def test_criterion_6_downfolding_identities(rng):
    # (a) sigma_ext = 0 -> term-exact bare restriction
    spin = builtin_fixture("h2_ducc_1.4008").to_spin_orbital()
    space = ActiveSpace.build(4, (1,), (2,))
    t, _ = ccsd_solve(spin, 2)
    internal_only = ducc.downfold(
        spin, ActiveSpace.build(4, (1,)), t)  # external side empty
    bare_full = ducc.bare_restriction(spin, ActiveSpace.build(4, (1,)))
    term_exact = (np.allclose(internal_only.h1, bare_full.h1, atol=1e-12)
                  and np.allclose(internal_only.antisymmetrized(),
                                  bare_full.antisymmetrized(), atol=1e-12)
                  and abs(internal_only.scalar_shift
                          - bare_full.scalar_shift) < 1e-12)
    # (b) full-space active -> spectrum identical
    spec_ok = True
    for name in GEOMETRIES:
        sp = builtin_fixture(name).to_spin_orbital()
        tt, _ = ccsd_solve(sp, 2)
        dh = ducc.downfold(sp, ActiveSpace.build(4, (1,)), tt)
        e_down, _ = exact_ground_state(dh, 2, 0)
        e_fci, _ = exact_ground_state(sp, 2, 0)
        spec_ok &= abs(e_down - e_fci) <= 1e-9
    # (c) commutator expansion vs dense oracle, 100 randomized instances
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 7))
        h = random_fermion_operator(rng, n, 4, hermitian=True)
        f = random_fermion_operator(rng, n, 3, hermitian=True)
        s = random_fermion_operator(rng, n, 3, max_len=3)
        s = s - s.dagger()
        out = oracles.commutator_expand(h, f, s)
        dh, df, ds = dense_operator(h), dense_operator(f), dense_operator(s)
        inner = df @ ds - ds @ df
        oracle = dh + (dh @ ds - ds @ dh) + 0.5 * (inner @ ds - ds @ inner)
        worst = max(worst, float(np.max(np.abs(dense_operator(out)
                                               - oracle))))
    _check(6, term_exact and spec_ok and worst <= 1e-9,
           f"sigma_ext=0 term-exact: {term_exact}; full-space spectrum "
           f"identical: {spec_ok}; commutator oracle worst dev {worst:.1e} "
           f"over 100 instances")


def test_criterion_7_downfolding_improvement(rng):
    half = ActiveSpace.build(4, (1,), (2,))
    ducc_err, bare_err = [], []
    for _ in range(20):
        spin = random_integral_set(rng, 4, noise=0.15).to_spin_orbital()
        t, _ = ccsd_solve(spin, 2)
        e_fci, _ = exact_ground_state(spin, 2, 0)
        e_ducc, _ = exact_ground_state(ducc.downfold(spin, half, t), 2, 0)
        e_bare, _ = exact_ground_state(ducc.bare_restriction(spin, half), 2, 0)
        ducc_err.append(abs(e_ducc - e_fci))
        bare_err.append(abs(e_bare - e_fci))
    med_ducc, med_bare = np.median(ducc_err), np.median(bare_err)
    _check(7, med_ducc < med_bare,
           f"20 randomized half-space systems: median downfolded error "
           f"{med_ducc:.2e} < median bare error {med_bare:.2e}")


def test_criterion_8_mapping_simulator_oracles(rng):
    t0 = time.time()
    ok = True
    notes = []
    # JW spectrum preservation
    for _ in range(5):
        op = random_fermion_operator(rng, 3, 5, hermitian=True)
        w_f = np.linalg.eigvalsh(dense_operator(op))
        w_q = np.linalg.eigvalsh(jordan_wigner(op).to_dense())
        ok &= bool(np.allclose(w_f, w_q, atol=1e-9))
    notes.append("JW spectra")
    # anticommutators
    from duccvqe.fermion import FermionOperator
    from duccvqe.mapping import PauliString
    for p in range(3):
        for q in range(3):
            a_p = jordan_wigner(FermionOperator.from_term(3, ((p, 0),)))
            aq = jordan_wigner(FermionOperator.from_term(3, ((q, 1),)))
            anti = (a_p * aq + aq * a_p).prune()
            want = {PauliString(): 1.0 + 0j} if p == q else {}
            ok &= anti.terms == want
    notes.append("anticommutators")
    # circuit vs dense unitary + norm preservation + variational bound
    space = ActiveSpace.build(3, (1,))
    exc = enumerate_excitations(space)
    circ = trotter_circuit(exc)
    spin = random_integral_set(rng, 3).to_spin_orbital()
    hp = jordan_wigner(build_hamiltonian(spin)).real()
    lam_min = np.linalg.eigvalsh(hp.to_dense())[0]
    ref = simulator.prepare_reference(6, {0, 1})
    for _ in range(10):
        theta = 0.1 * rng.normal(size=len(exc))
        out = simulator.apply(circ, theta, ref)
        ok &= abs(np.linalg.norm(out) - 1.0) < 1e-9
        e = simulator.expectation(hp, out)
        ok &= e >= lam_min - 1e-9
        from scipy.linalg import expm
        from duccvqe.ansatz import ucc_generator
        gen = dense_operator(ucc_generator(exc, theta))
        overlap = np.vdot(expm(gen) @ ref, out)
        # a single Trotter step deviates from the exact exponential at
        # second order in the angles; at this scale fidelity stays high
        ok &= abs(overlap) > 0.995
    notes.append("circuit/norm/variational bound")
    # gate-level dense-unitary agreement on random circuits
    from test_simulator import _dense_gate, _random_circuit
    for _ in range(10):
        n = int(rng.integers(2, 6))
        rc = _random_circuit(rng, n, 20)
        psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        psi /= np.linalg.norm(psi)
        got = simulator.apply(rc, [], psi)
        u = np.eye(1 << n, dtype=complex)
        for g in rc.gates:
            u = _dense_gate(g, n) @ u
        ok &= bool(np.allclose(got, u @ psi, atol=1e-10))
    notes.append("dense-unitary agreement")
    elapsed = time.time() - t0
    _check(8, ok and elapsed < 120.0,
           f"{', '.join(notes)} all within tolerance, {elapsed:.0f} s")
