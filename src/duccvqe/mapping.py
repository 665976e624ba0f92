"""Jordan-Wigner transformation and Pauli-string algebra.

Pauli strings are stored as X/Z bitmasks (qubit q is bit q; Y means both
bits set). Qubit k carries spin orbital k; creation maps to
(X - iY)/2 on the target qubit with a Z string on all lower qubits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fermion import HERMITIAN_TOL, PRUNE_THRESHOLD

# powers of i, indexed by the exponent mod 4
_I_POWERS = (1 + 0j, 1j, -1 + 0j, -1j)

_PAULI_MATS = {
    0: np.eye(2, dtype=complex),
    1: np.array([[0, 1], [1, 0]], dtype=complex),
    2: np.array([[1, 0], [0, -1]], dtype=complex),
    3: np.array([[0, -1j], [1j, 0]], dtype=complex),
}

_CODE_CHAR = {1: "X", 2: "Z", 3: "Y"}
_CHAR_CODE = {"X": 1, "Z": 2, "Y": 3}


@dataclass(frozen=True)
class PauliString:
    """Tensor product of single-qubit Paulis, phase-free by convention."""

    x: int = 0
    z: int = 0

    def code(self, qubit):
        return ((self.x >> qubit) & 1) + 2 * ((self.z >> qubit) & 1)

    @property
    def support(self):
        mask = self.x | self.z
        out = []
        q = 0
        while mask:
            if mask & 1:
                out.append(q)
            mask >>= 1
            q += 1
        return out

    def weight(self):
        return (self.x | self.z).bit_count()

    def label(self):
        parts = [f"{_CODE_CHAR[self.code(q)]}{q}" for q in self.support]
        return " ".join(parts) if parts else "I"

    @classmethod
    def single(cls, qubit, kind):
        code = _CHAR_CODE[kind]
        return cls((code & 1) << qubit, ((code >> 1) & 1) << qubit)

    def to_dense(self, n_qubits):
        out = np.eye(1, dtype=complex)
        for q in range(n_qubits - 1, -1, -1):
            out = np.kron(out, _PAULI_MATS[self.code(q)])
        return out


IDENTITY = PauliString()


def pauli_multiply(a: PauliString, b: PauliString):
    """Product in the Pauli group: returns (phase, string), phase in {±1,±i}.

    With Y = iXZ each string is i^|x&z| X^x Z^z, and moving Z^za past X^xb
    gives (-1)^|za&xb|, so the phase is i to the power below.
    """
    x, z = a.x ^ b.x, a.z ^ b.z
    k = ((a.x & a.z).bit_count() + (b.x & b.z).bit_count()
         - (x & z).bit_count() + 2 * (a.z & b.x).bit_count())
    return _I_POWERS[k % 4], PauliString(x, z)


@dataclass
class PauliSum:
    """Weighted sum of Pauli strings on n_qubits."""

    n_qubits: int
    terms: dict = field(default_factory=dict)

    @classmethod
    def zero(cls, n_qubits):
        return cls(n_qubits, {})

    @classmethod
    def from_terms(cls, n_qubits, pairs):
        out = cls(n_qubits, {})
        for string, coeff in pairs:
            out.add_term(string, coeff)
        return out

    def add_term(self, string, coeff):
        self.terms[string] = self.terms.get(string, 0.0) + coeff

    def prune(self):
        # written so that a NaN coefficient is kept, never dropped
        self.terms = {s: c for s, c in self.terms.items()
                      if not abs(c) <= PRUNE_THRESHOLD}
        return self

    def __add__(self, other):
        out = PauliSum(self.n_qubits, dict(self.terms))
        for s, c in other.terms.items():
            out.add_term(s, c)
        return out

    def __sub__(self, other):
        return self + (other * -1.0)

    def __mul__(self, factor):
        if isinstance(factor, PauliSum):
            out = PauliSum.zero(self.n_qubits)
            for s1, c1 in self.terms.items():
                for s2, c2 in factor.terms.items():
                    phase, s = pauli_multiply(s1, s2)
                    out.add_term(s, phase * c1 * c2)
            return out
        return PauliSum(self.n_qubits,
                        {s: c * factor for s, c in self.terms.items()})

    __rmul__ = __mul__

    def is_hermitian(self):
        return all(abs(c.imag if isinstance(c, complex) else 0.0)
                   <= HERMITIAN_TOL for c in self.terms.values())

    def real(self):
        """Drop sub-tolerance imaginary residue; error on larger ones."""
        out = {}
        for s, c in self.terms.items():
            c = complex(c)
            if abs(c.imag) > HERMITIAN_TOL:
                raise ValueError(
                    f"non-real coefficient {c} on {s.label()}")
            out[s] = c.real
        return PauliSum(self.n_qubits, out)

    def to_dense(self):
        dim = 1 << self.n_qubits
        out = np.zeros((dim, dim), dtype=complex)
        for s, c in self.terms.items():
            out += c * s.to_dense(self.n_qubits)
        return out

    def __len__(self):
        return len(self.terms)


def _mode_image(mode, dagger):
    """JW image of a_p^+ (or a_p): two Pauli strings with a lower Z chain."""
    zchain = (1 << mode) - 1
    x_string = PauliString(1 << mode, zchain)
    y_string = PauliString(1 << mode, zchain | (1 << mode))
    sign = -1j if dagger else 1j
    return ((x_string, 0.5), (y_string, sign * 0.5))


def jordan_wigner(op) -> PauliSum:
    """Map a FermionOperator to its qubit PauliSum."""
    out = PauliSum.zero(op.n_modes)
    for ops, coeff in op.terms.items():
        partial = [(IDENTITY, coeff)]
        for mode, dag in ops:
            image = _mode_image(mode, dag)
            nxt = []
            for s1, c1 in partial:
                for s2, c2 in image:
                    phase, s = pauli_multiply(s1, s2)
                    nxt.append((s, phase * c1 * c2))
            partial = nxt
        for s, c in partial:
            out.add_term(s, c)
    return out.prune()
