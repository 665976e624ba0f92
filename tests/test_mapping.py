import numpy as np
import oracles
import pytest
from conftest import (dense_operator, random_fermion_operator,
                      random_integral_set)

from duccvqe import ansatz, mapping
from duccvqe.amplitudes import mp2_amplitudes
from duccvqe.ansatz import (enumerate_excitations, screen_excitations,
                            trotter_circuit)
from duccvqe.fermion import (ActiveSpace, FermionOperator, build_hamiltonian,
                             excitation_generator)
from duccvqe.integrals import FIXTURE_NAMES, SpinIntegralSet, builtin_fixture
from duccvqe.mapping import (PauliString, PauliSum, jordan_wigner,
                             pauli_multiply)
from duccvqe.simulator import expectation

X = PauliString.single(0, "X")
Y = PauliString.single(0, "Y")
Z = PauliString.single(0, "Z")


@pytest.mark.parametrize("a,b,phase,out", [
    (X, Y, 1j, Z), (Y, X, -1j, Z),
    (Y, Z, 1j, X), (Z, Y, -1j, X),
    (Z, X, 1j, Y), (X, Z, -1j, Y),
    (X, X, 1, PauliString()),
])
def test_single_qubit_multiplication_table(a, b, phase, out):
    got_phase, got = pauli_multiply(a, b)
    assert got == out
    assert got_phase == phase


def test_multiply_matches_dense(rng):
    for _ in range(50):
        a = PauliString(int(rng.integers(8)), int(rng.integers(8)))
        b = PauliString(int(rng.integers(8)), int(rng.integers(8)))
        phase, c = pauli_multiply(a, b)
        np.testing.assert_allclose(phase * c.to_dense(3),
                                   a.to_dense(3) @ b.to_dense(3), atol=1e-12)


def test_pauli_string_contract():
    s = PauliString(0b101, 0b110)
    with pytest.raises(AttributeError):
        s.x = 0
    assert hash(s) == hash(PauliString(0b101, 0b110))
    assert {s: 1.0}[PauliString(5, 6)] == 1.0
    assert s == (5, 6) and s != PauliString(6, 5)
    identity = PauliString()
    assert (identity.x, identity.z) == (0, 0)
    assert identity.label() == "I" and identity.weight() == 0
    np.testing.assert_array_equal(identity.to_dense(2), np.eye(4))
    image = jordan_wigner(excitation_generator((0, 1, 2, 3), 4))
    assert all(type(s.x) is int and type(s.z) is int for s in image.terms)
    # a Z mask with bit 63 set reads as uint64 and leaves qubit 0 to set
    # the sign: <1|Z0|1> = -1
    top = PauliSum(1, {PauliString(0, (1 << 63) | 1): 1.0})
    assert expectation(top, np.array([0.0, 1.0])) == -1.0


def test_label_round_trip():
    s = PauliString(0b100001, 0b100100)
    assert s.label() == "X0 Z2 Y5"
    assert s.weight() == 3
    assert s.support == [0, 2, 5]
    assert PauliString().label() == "I"


def test_jw_mode_images_anticommute():
    # {a_p, a_q^+} = delta_pq survives the mapping
    n = 3
    for p in range(n):
        for q in range(n):
            a_p = jordan_wigner(FermionOperator.from_term(n, ((p, 0),)))
            aq_dag = jordan_wigner(FermionOperator.from_term(n, ((q, 1),)))
            anti = (a_p * aq_dag + aq_dag * a_p).prune()
            if p == q:
                assert anti.terms == {PauliString(): 1.0 + 0j}
            else:
                assert len(anti) == 0


def test_jw_matches_dense_oracle(rng):
    for _ in range(10):
        op = random_fermion_operator(rng, 3, 5)
        np.testing.assert_allclose(jordan_wigner(op).to_dense(),
                                   dense_operator(op), atol=1e-10)


@pytest.mark.parametrize("coeff,hermitian", [
    (0.5, True), (-2, True), (np.float64(0.5), True), (float("nan"), True),
    (float("inf"), True), (1 + 0j, True), (np.complex128(1e-10j), True),
    (complex(float("nan"), 0.0), True), (2e-10j, False), (-2e-10j, False),
    (complex(0.0, float("nan")), False), (complex(1.0, float("inf")), False),
    (np.complex128(1j), False)])
def test_is_hermitian_is_the_per_term_test(coeff, hermitian):
    # one coefficient among real ones, first, in between or last
    for at in (0, 2, 4):
        terms = [0.25, 1e-3 + 1e-12j, 3, -0.5]
        terms.insert(at, coeff)
        h = PauliSum(3, {PauliString(p, p >> 1): c
                         for p, c in enumerate(terms)})
        assert h.is_hermitian() is oracles.pauli_is_hermitian(h) is hermitian
    assert PauliSum(3, {}).is_hermitian() is True


def test_jw_preserves_fixture_spectrum():
    h = build_hamiltonian(builtin_fixture("h2_ducc_1.4008").to_spin_orbital())
    hp = jordan_wigner(h)
    assert hp.is_hermitian()
    w_qubit = np.linalg.eigvalsh(hp.to_dense())
    w_fermi = np.linalg.eigvalsh(dense_operator(h))
    np.testing.assert_allclose(w_qubit, w_fermi, atol=1e-9)


def test_number_operator_image():
    n_op = jordan_wigner(FermionOperator.from_term(2, ((1, 1), (1, 0))))
    # a_1^+ a_1 = (I - Z_1)/2
    assert n_op.terms[PauliString()] == pytest.approx(0.5)
    assert n_op.terms[PauliString.single(1, "Z")] == pytest.approx(-0.5)


def test_real_raises_on_imaginary():
    s = PauliSum.from_terms(1, [(Z, 0.5 + 1e-3j)])
    with pytest.raises(ValueError, match="non-real"):
        s.real()
    # the first term past the tolerance is named; residue below it and a
    # NaN imaginary part pass, and the real parts keep their bits
    s = PauliSum(1, {Z: 0.5 + 1e-11j, X: complex(-0.0, np.nan),
                     Y: -2.0 - 1e-3j, PauliString(): 1j})
    with pytest.raises(ValueError) as err:
        s.real()
    assert str(err.value) == "non-real coefficient (-2-0.001j) on Y0"
    del s.terms[Y], s.terms[PauliString()]
    assert s.real().terms == {Z: 0.5, X: -0.0}
    assert np.signbit(s.real().terms[X])


from hypothesis import example, given, settings
from hypothesis import strategies as st

masks = st.integers(min_value=0, max_value=15)


@settings(max_examples=200, deadline=None)
@given(masks, masks, masks, masks, masks, masks)
def test_multiply_associative_property(ax, az, bx, bz, cx, cz):
    a, b, c = PauliString(ax, az), PauliString(bx, bz), PauliString(cx, cz)
    p1, ab = pauli_multiply(a, b)
    q1, left = pauli_multiply(ab, c)
    p2, bc = pauli_multiply(b, c)
    q2, right = pauli_multiply(a, bc)
    assert left == right
    assert p1 * q1 == p2 * q2


def test_sum_algebra(rng):
    a = jordan_wigner(random_fermion_operator(rng, 2, 3))
    b = jordan_wigner(random_fermion_operator(rng, 2, 3))
    np.testing.assert_allclose((a + b).to_dense(),
                               a.to_dense() + b.to_dense(), atol=1e-12)
    np.testing.assert_allclose((a * b).to_dense(),
                               a.to_dense() @ b.to_dense(), atol=1e-12)
    np.testing.assert_allclose((a - 2.0 * a).to_dense(), -a.to_dense(),
                               atol=1e-12)


def test_nan_term_survives_jordan_wigner():
    h1 = np.diag([np.nan, 1.0])
    image = jordan_wigner(build_hamiltonian(
        SpinIntegralSet(2, h1, np.zeros((2,) * 4))))
    assert np.isnan(image.terms[PauliString()])
    assert np.isnan(PauliSum(1, {Z: np.nan}).prune().terms[Z])
    huge = complex(1.2711610061536462e308, 1.2711610061536464e308)
    assert PauliSum(1, {Z: huge}).prune().terms == {Z: huge}


def _assert_same_image(op):
    """jordan_wigner equals the one-operator-at-a-time oracle: the same
    strings in the same order, each coefficient bit for bit (NaN where
    the oracle has NaN)."""
    got, want = jordan_wigner(op), oracles.jordan_wigner(op)
    assert got.n_qubits == want.n_qubits
    assert list(got.terms) == list(want.terms)
    for g, w in zip(got.terms.values(), want.terms.values()):
        g, w = np.array([g, w], dtype=complex).view(np.float64).reshape(2, 2)
        assert np.array_equal(np.isnan(g), np.isnan(w))
        assert np.array_equal(g[~np.isnan(g)].view(np.uint64),
                              w[~np.isnan(w)].view(np.uint64))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_jw_is_the_oracle_on_fixtures(name):
    spin = builtin_fixture(name).to_spin_orbital()
    _assert_same_image(build_hamiltonian(spin))
    for space in (ActiveSpace.build(4, (1,)),
                  ActiveSpace.build(4, (1,), (2,))):
        for key in enumerate_excitations(space).entries:
            _assert_same_image(excitation_generator(key,
                                                    space.n_active_spin))


@pytest.mark.parametrize("chunk", [mapping.CHUNK_PRODUCTS, 40, 1],
                         ids=["default", "40", "1"])
def test_jw_is_the_oracle_on_seeded_systems(rng, monkeypatch, chunk):
    # at 40, the strings of 4 operators are expanded 2 at a time and those
    # of 6 or more one at a time; at 1 every length group is split into
    # single strings, so each chunk join is crossed
    monkeypatch.setattr(mapping, "CHUNK_PRODUCTS", chunk)
    for n_orbitals, n_electrons in ((2, 2), (3, 4), (4, 2), (5, 6), (6, 6),
                                    (7, 6), (8, 6)):
        spin = random_integral_set(rng, n_orbitals).to_spin_orbital()
        _assert_same_image(build_hamiltonian(spin))
        space = ActiveSpace.build(n_orbitals,
                                  tuple(range(1, n_electrons // 2 + 1)))
        for key in enumerate_excitations(space).entries:
            _assert_same_image(excitation_generator(key, 2 * n_orbitals))
        # strings of up to 8 operators, at least one of each length 0..8
        op = random_fermion_operator(rng, 2 * n_orbitals, 60, max_len=8)
        for length in range(9):
            op.add_term([(int(p), int(d)) for p, d in zip(
                rng.integers(2 * n_orbitals, size=length),
                rng.integers(2, size=length))], rng.normal())
        _assert_same_image(op)


def test_jw_edge_operators():
    _assert_same_image(FermionOperator.zero(3))
    assert len(jordan_wigner(FermionOperator.zero(3))) == 0
    constant = FermionOperator.from_term(2, (), 2.5)
    _assert_same_image(constant)
    assert jordan_wigner(constant).terms == {PauliString(): 2.5}
    constant.add_term(((1, 1), (1, 0)), -1.0)
    _assert_same_image(constant)
    # a_p a_p and a_p^+ a_p^+ vanish; their 4 products cancel pairwise
    for dag in (0, 1):
        twice = FermionOperator.from_term(3, ((1, dag), (1, dag)), 0.7)
        _assert_same_image(twice)
        assert len(jordan_wigner(twice)) == 0
    nan = FermionOperator(3, {((0, 1), (2, 0)): float("nan"),
                              ((2, 1), (0, 0)): 1.0, (): float("nan")})
    _assert_same_image(nan)
    assert all(np.isnan(c) for c in jordan_wigner(nan).terms.values())


def test_jw_reaches_the_top_bit():
    op = FermionOperator(64, {((63, 1), (0, 0)): 0.25, ((0, 1), (63, 0)): 0.25,
                              ((63, 1), (63, 0)): -1.5,
                              ((62, 1), (63, 1), (1, 0), (0, 0)): 0.125})
    _assert_same_image(op)
    image = jordan_wigner(op)
    assert all(type(s.x) is int and type(s.z) is int for s in image.terms)
    assert PauliString(0, 1 << 63) in image.terms   # -1.5 n_63 -> +0.75 Z63
    assert max(s.x | s.z for s in image.terms) >> 63 == 1
    for mode in (64, -1):
        with pytest.raises(ValueError, match="0..63"):
            jordan_wigner(FermionOperator.from_term(65, ((mode, 1),)))


def test_jw_circuits_are_the_oracle_circuits(monkeypatch):
    # the Trotter gate order follows the order of the image's strings
    def texts():
        out = []
        for name in FIXTURE_NAMES:
            spin = builtin_fixture(name).to_spin_orbital()
            t_mp2 = mp2_amplitudes(spin, 2)
            for space in (ActiveSpace.build(4, (1,)),
                          ActiveSpace.build(4, (1,), (2,))):
                exc = enumerate_excitations(space)
                out.append(trotter_circuit(exc).to_text())
            exc = screen_excitations(
                enumerate_excitations(ActiveSpace.build(4, (1,))),
                t_mp2, 1e-3)
            out.append(trotter_circuit(exc).to_text())
        return out

    got = texts()
    monkeypatch.setattr(ansatz, "jordan_wigner", oracles.jordan_wigner)
    assert got == texts()


ladder = st.tuples(st.integers(0, 5), st.integers(0, 1))
coefficients = st.one_of(
    st.floats(width=64),
    st.complex_numbers(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1e-12, 5e-324, 1e308]))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6),
       st.lists(st.tuples(st.lists(ladder, max_size=8), coefficients),
                max_size=8))
# a modulus just past the float range: abs() raised OverflowError in prune
@example(1, [([], complex(1.2711610061536462e308, 1.2711610061536464e308))])
def test_jw_property(n_modes, terms):
    op = FermionOperator.zero(n_modes)
    for ops, c in terms:
        op.add_term(tuple((m % n_modes, d) for m, d in ops), c)
    _assert_same_image(op)
