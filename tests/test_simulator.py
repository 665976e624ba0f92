import numpy as np
import oracles
import pytest
from conftest import random_fermion_operator, random_integral_set

from duccvqe import simulator
from duccvqe.ansatz import Circuit, Gate
from duccvqe.fermion import build_hamiltonian, hf_determinant, hf_energy
from duccvqe.integrals import builtin_fixture
from duccvqe.mapping import PauliString, PauliSum, jordan_wigner
from duccvqe.simulator import (SimulatorError, apply, expectation,
                               prepare_reference)


def _dense_gate(g, n):
    i2 = np.eye(2)
    if g.name == "H":
        m = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    elif g.name == "RX":
        c, s = np.cos(g.angle / 2), np.sin(g.angle / 2)
        m = np.array([[c, -1j * s], [-1j * s, c]])
    elif g.name == "RZ":
        m = np.diag([np.exp(-0.5j * g.angle), np.exp(0.5j * g.angle)])
    else:
        c, t = g.qubits
        out = np.zeros((1 << n, 1 << n), dtype=complex)
        for k in range(1 << n):
            out[k ^ (1 << t) if (k >> c) & 1 else k, k] = 1.0
        return out
    out = np.eye(1, dtype=complex)
    for q in range(n - 1, -1, -1):
        out = np.kron(out, m if q == g.qubits[0] else i2)
    return out


def _random_circuit(rng, n, n_gates):
    gates = []
    for _ in range(n_gates):
        kind = rng.integers(4)
        q = int(rng.integers(n))
        if kind == 0:
            gates.append(Gate("H", (q,)))
        elif kind == 1:
            gates.append(Gate("RX", (q,), angle=float(rng.normal())))
        elif kind == 2:
            gates.append(Gate("RZ", (q,), angle=float(rng.normal())))
        else:
            c, t = rng.choice(n, 2, replace=False)
            gates.append(Gate("CNOT", (int(c), int(t))))
    return Circuit(n, 0, gates)


def test_prepare_reference():
    st = prepare_reference(3, {0, 2})
    assert st[0b101] == 1.0
    assert np.linalg.norm(st) == pytest.approx(1.0)
    assert prepare_reference(2, set())[0] == 1.0
    with pytest.raises(SimulatorError, match="occupied"):
        prepare_reference(2, {5})
    with pytest.raises(SimulatorError, match="cap"):
        prepare_reference(30, {0})


def test_parity_phase_circuit():
    # CNOT-Rz-CNOT applies exp(-i theta Z0 Z1 / 2)
    circ = Circuit(2, 1, [Gate("CNOT", (0, 1)), Gate("RZ", (1,), slot=0),
                          Gate("CNOT", (0, 1))])
    theta = 0.7
    for bits, parity in ((0b00, 1), (0b01, -1), (0b10, -1), (0b11, 1)):
        st = prepare_reference(2, {q for q in range(2) if bits >> q & 1})
        out = apply(circ, [theta], st)
        expected = np.exp(-0.5j * theta * parity)
        assert out[bits] == pytest.approx(expected, abs=1e-12)


def test_empty_circuit_is_identity(rng):
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    out = apply(Circuit(3, 0), [], psi)
    np.testing.assert_array_equal(out, psi)
    assert out is not psi


def test_random_circuits_match_dense_oracle(rng):
    for _ in range(20):
        n = int(rng.integers(2, 6))
        circ = _random_circuit(rng, n, 25)
        psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        psi /= np.linalg.norm(psi)
        out = apply(circ, [], psi)
        u = np.eye(1 << n, dtype=complex)
        for g in circ.gates:
            u = _dense_gate(g, n) @ u
        np.testing.assert_allclose(out, u @ psi, atol=1e-10)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12


def test_apply_is_linear(rng):
    n = 3
    circ = _random_circuit(rng, n, 15)
    psi1 = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi2 = rng.normal(size=8) + 1j * rng.normal(size=8)
    a, b = 0.3 - 0.2j, 1.1 + 0.5j
    mixed = apply(circ, [], a * psi1 + b * psi2)
    parts = a * apply(circ, [], psi1) + b * apply(circ, [], psi2)
    np.testing.assert_allclose(mixed, parts, atol=1e-12)


def test_slot_mismatch_rejected():
    circ = Circuit(2, 1, [Gate("RZ", (0,), slot=0)])
    with pytest.raises(SimulatorError, match="parameters"):
        apply(circ, [], prepare_reference(2, set()))


def test_register_mismatch_rejected():
    with pytest.raises(SimulatorError, match="3-qubit circuit on 2-qubit"):
        apply(Circuit(3, 0, [Gate("H", (2,))]), [], prepare_reference(2, ()))


def test_expectation_basics():
    st = prepare_reference(3, {0})
    ident = PauliSum.from_terms(3, [(PauliString(), 2.5)])
    assert expectation(ident, st) == pytest.approx(2.5)
    z0 = PauliSum.from_terms(3, [(PauliString.single(0, "Z"), 1.0)])
    assert expectation(z0, st) == pytest.approx(-1.0)
    z1 = PauliSum.from_terms(3, [(PauliString.single(1, "Z"), 1.0)])
    assert expectation(z1, st) == pytest.approx(1.0)


def test_expectation_matches_dense(rng):
    from conftest import random_fermion_operator
    op = random_fermion_operator(rng, 3, 5, hermitian=True)
    hp = jordan_wigner(op)
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi /= np.linalg.norm(psi)
    oracle = np.vdot(psi, hp.to_dense() @ psi).real
    assert expectation(hp, psi) == pytest.approx(oracle, abs=1e-10)


def test_expectation_rejects_nonreal():
    s = PauliSum.from_terms(1, [(PauliString.single(0, "Z"), 1.0 + 0.1j)])
    with pytest.raises(SimulatorError, match="non-real"):
        expectation(s, prepare_reference(1, set()))


def test_expectation_rejects_x_beyond_the_state():
    # an X or a Y on a missing qubit has no amplitude to move to, whatever
    # the state; a Z there reads as the identity
    for state in (prepare_reference(2, [0]), np.zeros(4, dtype=complex)):
        for x, z in ((4, 0), (4, 4), (5, 1), (1 << 63, 0)):
            top = x.bit_length() - 1
            with pytest.raises(SimulatorError,
                               match=f"X or Y on qubit {top} of a 2-qubit"):
                expectation(PauliSum(2, {PauliString(x, z): 1.0}), state)
    state = prepare_reference(2, [0])
    assert expectation(PauliSum(2, {PauliString(0, 5): 1.0}), state) == -1.0
    assert expectation(PauliSum(2, {PauliString(1, 4): 1.0}), state) == 0.0


def test_hf_expectation_cross_module():
    spin = builtin_fixture("h2_ducc_1.4008").to_spin_orbital()
    hp = jordan_wigner(build_hamiltonian(spin))
    st = prepare_reference(8, {0, 1})
    assert expectation(hp, st) == pytest.approx(
        hf_energy(spin, hf_determinant(2)), abs=1e-10)


def test_expectation_bounded_below(rng):
    spin = builtin_fixture("h2_ducc_0.8").to_spin_orbital()
    hp = jordan_wigner(build_hamiltonian(spin))
    lam_min = np.linalg.eigvalsh(hp.to_dense())[0]
    for _ in range(5):
        psi = rng.normal(size=256) + 1j * rng.normal(size=256)
        psi /= np.linalg.norm(psi)
        assert expectation(hp, psi) >= lam_min - 1e-9


@pytest.mark.parametrize("chunk", [simulator.CHUNK_EXCITATIONS, 7])
def test_expectation_is_the_oracle(rng, monkeypatch, chunk):
    # chunk 7 splits both the strings and the amplitudes into many chunks
    monkeypatch.setattr(simulator, "CHUNK_EXCITATIONS", chunk)
    spin = random_integral_set(rng, 4).to_spin_orbital()
    images = [jordan_wigner(build_hamiltonian(spin)),
              jordan_wigner(random_fermion_operator(rng, 8, 12,
                                                    hermitian=True))]
    images.append(images[0].real())
    sparse = np.zeros(256, dtype=complex)
    support = rng.choice(256, size=5, replace=False)
    sparse[support] = rng.normal(size=5) + 1j * rng.normal(size=5)
    dense = rng.normal(size=256) + 1j * rng.normal(size=256)
    states = [prepare_reference(8, {0, 1, 4}),
              sparse / np.linalg.norm(sparse),
              dense / np.linalg.norm(dense)]
    for hp in images:
        for st in states:
            assert expectation(hp, st) == pytest.approx(
                oracles.expectation(hp, st), rel=0, abs=1e-12)
    assert expectation(PauliSum.zero(8), states[2]) == 0.0
    assert expectation(images[0], np.zeros(256, dtype=complex)) == 0.0


@pytest.mark.parametrize("chunk", [simulator.CHUNK_EXCITATIONS, 1])
def test_expectation_checks_still_fire(monkeypatch, chunk):
    monkeypatch.setattr(simulator, "CHUNK_EXCITATIONS", chunk)
    z0 = PauliString.single(0, "Z")
    with pytest.raises(SimulatorError, match="non-real"):
        expectation(PauliSum.from_terms(1, [(z0, 1.0 + 0.1j)]),
                    prepare_reference(1, set()))
    # an imaginary part inside HERMITIAN_TOL, scaled up by <psi|psi> = 1e6
    tilted = PauliSum.from_terms(1, [(PauliString(), 1.0 + 5e-11j),
                                     (z0, 0.5)])
    unnormalized = np.array([1e3, 0j])
    with pytest.raises(SimulatorError, match="imaginary residue"):
        expectation(tilted, unnormalized)
    with pytest.raises(SimulatorError, match="imaginary residue"):
        oracles.expectation(tilted, unnormalized)
