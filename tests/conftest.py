"""Shared fixtures: randomized integral sets and dense operator oracles.

The dense oracle builds creation/annihilation matrices directly from
Kronecker products, independent of the package's normal-ordering and
Jordan-Wigner code paths, so algebraic identities are checked against
first principles.
"""

import numpy as np
import pytest

from duccvqe import integrals as integrals_mod
from duccvqe.fermion import FermionOperator

FIXTURES = list(integrals_mod.FIXTURE_NAMES)

_SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]])  # a on one mode
_Z = np.diag([1.0, -1.0])
_I2 = np.eye(2)


def dense_annihilator(mode, n_modes):
    """a_mode as a dense 2^n matrix, little-endian occupation-number basis."""
    out = np.eye(1)
    for q in range(n_modes - 1, -1, -1):
        if q > mode:
            out = np.kron(out, _I2)
        elif q == mode:
            out = np.kron(out, _SIGMA_MINUS)
        else:
            out = np.kron(out, _Z)
    return out


def dense_operator(op: FermionOperator):
    """Dense matrix of a FermionOperator via raw kron products."""
    dim = 1 << op.n_modes
    ann = [dense_annihilator(m, op.n_modes) for m in range(op.n_modes)]
    out = np.zeros((dim, dim), dtype=complex)
    for ops, c in op.terms.items():
        mat = np.eye(dim, dtype=complex)
        for mode, dag in ops:
            mat = mat @ (ann[mode].T if dag else ann[mode])
        out += c * mat
    return out


def random_fermion_operator(rng, n_modes, n_terms, max_len=4, hermitian=False):
    """Random particle-number-agnostic operator strings."""
    op = FermionOperator.zero(n_modes)
    for _ in range(n_terms):
        length = rng.integers(0, max_len + 1)
        ops = tuple((int(rng.integers(n_modes)), int(rng.integers(2)))
                    for _ in range(length))
        op.add_term(ops, float(rng.normal()))
    if hermitian:
        op = op + op.dagger()
    return op


def random_integral_set(rng, n_orbitals, gap=1.0, noise=0.1):
    """Random spatial integrals with the 8-fold real symmetry and an
    HF gap: diagonal one-body energies are well separated so the lowest
    determinant is a safe closed-shell reference."""
    eps = np.sort(rng.uniform(-2.0, 2.0, n_orbitals))
    eps += gap * np.arange(n_orbitals)
    h1 = np.diag(eps) + noise * _symmetrize(rng.normal(size=(n_orbitals,) * 2))
    raw = rng.normal(size=(n_orbitals,) * 4)
    h2 = np.zeros_like(raw)
    for perm in ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0),
                 (1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 1, 0), (3, 2, 0, 1)):
        h2 += raw.transpose(perm)
    h2 *= noise / 8.0
    ints = integrals_mod.IntegralSet(n_orbitals=n_orbitals)
    for i in range(1, n_orbitals + 1):
        for j in range(i, n_orbitals + 1):
            ints.set_h1(i, j, float(h1[i - 1, j - 1]))
    for i in range(1, n_orbitals + 1):
        for j in range(1, n_orbitals + 1):
            for k in range(1, n_orbitals + 1):
                for l in range(1, n_orbitals + 1):
                    ints.set_h2(i, j, k, l, float(h2[i-1, j-1, k-1, l-1]))
    return ints


def one_body_integrals(h1):
    """Integrals of H = sum h1[p, q] a_p^+ a_q over len(h1) modes."""
    m = len(h1)
    return integrals_mod.SpinIntegralSet(m, np.asarray(h1, dtype=float),
                                         np.zeros((m,) * 4))


def _symmetrize(m):
    return (m + m.T) / 2


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


def pytest_terminal_summary(terminalreporter):
    """Repeat the acceptance pass/fail lines where fd capture can't eat them."""
    try:
        from test_acceptance import ACCEPTANCE_LOG
    except ImportError:
        return
    if ACCEPTANCE_LOG:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LOG:
            terminalreporter.write_line(line)
