import numpy as np
import pytest
from conftest import dense_operator, random_fermion_operator

from duccvqe.fermion import FermionOperator, build_hamiltonian
from duccvqe.integrals import SpinIntegralSet, builtin_fixture
from duccvqe.mapping import (PauliString, PauliSum, jordan_wigner,
                             pauli_multiply)

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


from hypothesis import given, settings
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
