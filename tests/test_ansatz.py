import numpy as np
import pytest
from conftest import dense_operator
from hypothesis import example, given, settings
from hypothesis import strategies as st

from duccvqe import simulator
from duccvqe.ansatz import (AnsatzError, Circuit, ExcitationList, Gate,
                            enumerate_excitations, resource_report,
                            screen_excitations, trotter_circuit,
                            ucc_generator, _pauli_exponentials)
from duccvqe.fermion import ActiveSpace

# published resource rows: (spatial orbitals, electrons, excitations)
RESOURCE_ROWS = [
    (4, 2, 15), (5, 2, 24), (6, 2, 35), (7, 2, 48), (8, 2, 63),
    (9, 2, 80), (10, 2, 99),
    (7, 6, 204), (8, 6, 315), (9, 6, 450), (10, 6, 609), (11, 6, 792),
    (12, 6, 999), (13, 6, 1230), (14, 6, 1485),
]


def _space(n_orbitals, n_electrons):
    return ActiveSpace.build(n_orbitals,
                             tuple(range(1, n_electrons // 2 + 1)))


@pytest.mark.parametrize("n_orb,nelec,count", RESOURCE_ROWS)
def test_excitation_counts(n_orb, nelec, count):
    exc = enumerate_excitations(_space(n_orb, nelec))
    assert len(exc) == count
    o, v = nelec // 2, n_orb - nelec // 2
    assert len(exc.singles) == 2 * o * v


def test_excitations_sz_conserving_and_canonical():
    exc = enumerate_excitations(_space(4, 2))
    for i, a in exc.singles:
        assert i % 2 == a % 2
    for i, j, a, b in exc.doubles:
        assert i < j and a < b
        assert i % 2 + j % 2 == a % 2 + b % 2
    assert len(set(exc.entries)) == len(exc.entries)
    assert exc.entries[:len(exc.singles)] == exc.singles


def test_no_virtuals_no_excitations():
    exc = enumerate_excitations(_space(1, 2))
    assert len(exc) == 0
    rep = resource_report(exc)
    assert (rep.n_qubits, rep.gate_count, rep.depth) == (2, 0, 0)


@pytest.mark.parametrize("singles,doubles", [
    (((0, 9),), ()),            # a mode past the 8 spin orbitals
    (((-1, 2),), ()),           # a negative mode
    ((), ((0, 0, 2, 2),)),      # a repeated mode
    (((0, 3),), ()),            # alpha -> beta breaks Sz
    (((0, 2, 4),), ()),         # a single of three modes
    ((), ((0, 2),)),            # a double of two modes
], ids=["past_last_mode", "negative_mode", "repeated_mode", "breaks_sz",
        "three_mode_single", "two_mode_double"])
def test_malformed_excitation_key_rejected(singles, doubles):
    with pytest.raises(AnsatzError, match="malformed"):
        ExcitationList(8, singles, doubles)


def test_generator_shapes():
    exc = enumerate_excitations(_space(3, 2))
    zero = ucc_generator(exc, np.zeros(len(exc)))
    assert len(zero) == 0
    theta = 0.3
    one = ExcitationList(6, ((0, 2),), ())
    g = ucc_generator(one, [theta])
    assert g.terms == {((2, 1), (0, 0)): theta, ((0, 1), (2, 0)): -theta}
    with pytest.raises(AnsatzError, match="parameters"):
        ucc_generator(exc, [0.0])


def test_generator_antihermitian_dense(rng):
    exc = enumerate_excitations(_space(3, 2))
    g = ucc_generator(exc, rng.normal(size=len(exc)))
    dense = dense_operator(g)
    np.testing.assert_allclose(dense, -dense.conj().T, atol=1e-12)


def test_string_counts_per_excitation():
    assert len(_pauli_exponentials((0, 2), 6)) == 2
    assert len(_pauli_exponentials((0, 1, 2, 3), 6)) == 8


def test_zero_parameters_identity(rng):
    exc = enumerate_excitations(_space(3, 2))
    circ = trotter_circuit(exc)
    psi = rng.normal(size=64) + 1j * rng.normal(size=64)
    psi /= np.linalg.norm(psi)
    out = simulator.apply(circ, np.zeros(len(exc)), psi)
    fidelity = abs(np.vdot(psi, out)) ** 2
    assert 1.0 - fidelity < 1e-12


def test_circuit_matches_generator_exponential(rng):
    # single-excitation circuit equals expm of its generator exactly
    # (the two JW strings of one excitation commute)
    from scipy.linalg import expm
    one = ExcitationList(4, ((0, 2),), ())
    circ = trotter_circuit(one)
    theta = float(rng.normal())
    g_dense = dense_operator(ucc_generator(one, [theta]))
    ref = simulator.prepare_reference(4, {0, 1})
    out = simulator.apply(circ, [theta], ref)
    oracle = expm(g_dense) @ ref
    np.testing.assert_allclose(out, oracle, atol=1e-10)


def test_circuit_preserves_sector(rng):
    exc = enumerate_excitations(_space(4, 2))
    circ = trotter_circuit(exc)
    out = simulator.apply(circ, 0.1 * rng.normal(size=len(exc)),
                          simulator.prepare_reference(8, {0, 1}))
    for k in np.flatnonzero(np.abs(out) > 1e-10):
        k = int(k)
        assert k.bit_count() == 2
        alpha = (k & 0x55).bit_count()
        assert alpha == 1  # Sz preserved


# closed-form (gates, depth) where the circuit is too large to build: the
# 28-orbital H2 and 60-orbital Li2 spaces of the published table
LARGE_RESOURCES = [((28, 2), 292_500, 257_291),
                   ((60, 6), 28_603_284, 26_738_689)]


def _random_sublists(rng, exc, count):
    """Seeded random subsets of the singles and of the doubles, each in a
    random order."""
    for _ in range(count):
        groups = [tuple(group[k] for k in rng.permutation(len(group))
                        [:rng.integers(len(group) + 1)])
                  for group in (exc.singles, exc.doubles)]
        yield ExcitationList(exc.n_spin_orbitals, *groups)


def test_resource_report_matches_real_circuit():
    rng = np.random.default_rng(5)
    full = [enumerate_excitations(_space(n_orb, nelec))
            for n_orb, nelec in [(2, 2), (3, 2), (4, 2), (4, 4), (5, 2),
                                 (3, 4)]]
    cases = full + [sub for exc in full[1:]
                    for sub in _random_sublists(rng, exc, 10)]
    for exc in cases:
        circ = trotter_circuit(exc)
        rep = resource_report(exc)
        assert (rep.n_qubits, rep.n_excitations, rep.gate_count,
                rep.depth) == (circ.n_qubits, len(exc), len(circ.gates),
                               circ.depth()), exc.entries
    for (n_orb, nelec), gates, depth in LARGE_RESOURCES:
        rep = resource_report(enumerate_excitations(_space(n_orb, nelec)))
        assert (rep.n_qubits, rep.gate_count, rep.depth) == (
            2 * n_orb, gates, depth)


def test_gate_count_monotone():
    space = _space(4, 2)
    exc = enumerate_excitations(space)
    counts = []
    for k in range(len(exc.doubles) + 1):
        sub = ExcitationList(8, exc.singles, exc.doubles[:k])
        counts.append(resource_report(sub).gate_count)
    assert counts == sorted(counts)


def test_circuit_unitary_dense(rng):
    exc = enumerate_excitations(_space(3, 2))
    circ = trotter_circuit(exc)
    params = rng.normal(size=len(exc))
    dim = 1 << 6
    u = np.zeros((dim, dim), dtype=complex)
    for k in range(dim):
        basis = np.zeros(dim, dtype=complex)
        basis[k] = 1.0
        u[:, k] = simulator.apply(circ, params, basis)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(dim), atol=1e-10)


def test_text_round_trip_and_validation():
    # trotter_circuit skips Circuit.add; every gate it makes still passes
    # the check that from_text runs
    for n_orb, nelec in ((2, 2), (3, 2), (4, 4), (3, 4)):
        circ = trotter_circuit(enumerate_excitations(_space(n_orb, nelec)))
        back = Circuit.from_text(circ.n_qubits, circ.n_params,
                                 circ.to_text())
        assert back.gates == circ.gates
    with pytest.raises(AnsatzError, match="off the"):
        Circuit(2, 0, [Gate("H", (5,))])
    with pytest.raises(AnsatzError, match="slot"):
        Circuit(2, 1, [Gate("RZ", (0,), slot=3)])
    with pytest.raises(AnsatzError, match="bad gate"):
        Circuit.from_text(2, 0, "FOO 1\n")
    with pytest.raises(AnsatzError, match="line 3: .*non-finite angle"):
        Circuit.from_text(2, 0, "H 0  # a comment\n\nRZ nan 1\n")


def test_screen_excitations():
    from duccvqe.amplitudes import ClusterAmplitudes
    exc = enumerate_excitations(_space(4, 2))
    t = ClusterAmplitudes.empty(2, 8)
    t.set_t2(0, 1, 2, 3, 0.2)
    kept = screen_excitations(exc, t, 1e-5)
    assert kept.doubles == ((0, 1, 2, 3),)
    assert kept.singles == exc.singles
    for bad in (float("nan"), float("inf"), -1e-5):
        with pytest.raises(AnsatzError, match="threshold"):
            screen_excitations(exc, t, bad)


_ANGLE = st.one_of(st.floats(-4.0, 4.0), st.floats()).map(repr)
_QUBIT = st.integers(-1, 3).map(str)
_SLOT = st.tuples(st.integers(-1, 2), st.one_of(st.just(""), _ANGLE)).map(
    lambda sv: f"p{sv[0]}*{sv[1]}" if sv[1] else f"p{sv[0]}")
_GATE_TOKEN = st.one_of(
    st.sampled_from(["H", "CNOT", "RX", "RZ", "rz", "FOO", "#", "p", "p*"]),
    _QUBIT, _ANGLE, _SLOT, st.text("0123456789.-+eEp*", max_size=5))
_GATE_LINE = st.one_of(
    st.tuples(st.sampled_from(["H", "CNOT"]), _QUBIT, _QUBIT),
    st.tuples(st.sampled_from(["H"]), _QUBIT),
    st.tuples(st.sampled_from(["RX", "RZ"]), st.one_of(_ANGLE, _SLOT), _QUBIT),
    st.lists(_GATE_TOKEN, max_size=5)).map(lambda fields: " ".join(fields))


@settings(max_examples=200, deadline=None)
@given(st.lists(_GATE_LINE, max_size=5))
@example(["CNOT 0 0"])  # accepted once, then failed in the simulator
@example(["RX p0 0"])   # parsed with a slot that to_text dropped
def test_circuit_text_fuzz(lines):
    try:
        circ = Circuit.from_text(3, 2, "\n".join(lines))
    except AnsatzError:
        return
    assert Circuit.from_text(3, 2, circ.to_text()).gates == circ.gates
    assert circ.depth() <= len(circ.gates)
    state = simulator.apply(circ, [0.3, -0.7],
                            simulator.prepare_reference(3, {0}))
    assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)
