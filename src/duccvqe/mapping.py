"""Jordan-Wigner transformation and Pauli-string algebra.

Pauli strings are (x, z) tuples of X/Z bitmasks (qubit q is bit q; Y means
both bits set). Qubit k carries spin orbital k; creation maps to
(X - iY)/2 on the target qubit with a Z string on all lower qubits.
``jordan_wigner`` expands operator strings one ladder operator at a time,
on ``np.uint64`` masks, about ``CHUNK_PRODUCTS`` Pauli products at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from .fermion import HERMITIAN_TOL, MAX_MODES, TermSum, negligible

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


class PauliString(NamedTuple):
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
class PauliSum(TermSum):
    """Weighted sum of Pauli strings on n_qubits."""

    n_qubits: int
    terms: dict = field(default_factory=dict)

    @classmethod
    def from_terms(cls, n_qubits, pairs):
        out = cls(n_qubits, {})
        for string, coeff in pairs:
            out.add_term(string, coeff)
        return out

    def __mul__(self, factor):
        if not isinstance(factor, PauliSum):
            return super().__mul__(factor)
        out = PauliSum.zero(self.n_qubits)
        for s1, c1 in self.terms.items():
            for s2, c2 in factor.terms.items():
                phase, s = pauli_multiply(s1, s2)
                out.add_term(s, phase * c1 * c2)
        return out

    def is_hermitian(self):
        coeffs = np.fromiter(self.terms.values(), complex, len(self.terms))
        return bool((np.abs(coeffs.imag) <= HERMITIAN_TOL).all())

    def real(self):
        """Drop sub-tolerance imaginary residue; error on larger ones."""
        coeffs = np.fromiter(self.terms.values(), complex, len(self.terms))
        bad = np.flatnonzero(np.abs(coeffs.imag) > HERMITIAN_TOL)
        if len(bad):
            raise ValueError(f"non-real coefficient {complex(coeffs[bad[0]])} "
                             f"on {list(self.terms)[bad[0]].label()}")
        return PauliSum(self.n_qubits,
                        dict(zip(self.terms, coeffs.real.tolist())))

    def to_dense(self):
        dim = 1 << self.n_qubits
        out = np.zeros((dim, dim), dtype=complex)
        for s, c in self.terms.items():
            out += c * s.to_dense(self.n_qubits)
        return out


# Pauli products jordan_wigner forms at once: with BLAS on 1 thread on a
# 2-vCPU VM, 8192 maps H of 6 and 8 seeded orbitals 2-3% faster than 4096,
# and 5-15% faster than 2^15 to 2^18, which take up to 1.9x the peak memory
CHUNK_PRODUCTS = 1 << 13
_ONE = np.uint64(1)
_PHASES = np.array(_I_POWERS)
# JW image of a ladder operator: X string times 1/2 and Y string times i/2
# (annihilation, row 0) or -i/2 (creation, row 1), both with the Z chain
# on the lower qubits; the products are those ``pauli_multiply`` forms
_LADDER = np.array([[0.5, 1j * 0.5], [0.5, -1j * 0.5]])
_PICK = np.array([0, 1], np.uint8)


def _products(ops, coeffs):
    """(x, z, coefficient) of the 2^L Pauli products of each of n strings
    of L ladder operators, string-major, expanded one operator at a time:
    level k holds the X and the Y child (pick 0, 1) of each product of level
    k - 1, formed with the phase and the order of ``pauli_multiply``."""
    n, length = ops.shape[:2]
    bits = _ONE << ops[..., 0].astype(np.uint64)
    # the Z chain below the mode, and the mode too for a Y (mode 63 wraps)
    chains = (bits[..., None] << _PICK) - _ONE
    z = [np.zeros((n, 1), np.uint64)]
    for k in range(length):
        z.append((z[-1][..., None] ^ chains[:, k, None]).reshape(n, -1))
    # levels 0..L-1 side by side as parents, with x and image x of children
    z = np.concatenate(z, axis=1)
    parent, parents = z[:, :-(1 << length), None], 1 << np.arange(length)
    x, bit = (np.repeat(a, parents, axis=1)[..., None]
              for a in (np.bitwise_xor.accumulate(bits, axis=1), bits))
    # pauli_multiply's exponent of i: |x & z| before, plus 2 |z before & x
    # of the image|, plus that of the image (its pick), minus |x & z|
    # after; uint8 wraps mod 256, which keeps it right mod 4
    phase = _PHASES[np.bitwise_count((x ^ bit) & parent)
                    + 2 * np.bitwise_count(parent & bit) + _PICK
                    - np.bitwise_count(x & z[:, 1:].reshape(n, -1, 2)) & 3]
    images, c = _LADDER[(ops[..., 1:] != 0) * 1], coeffs[:, None, None]
    for k in range(length):
        c = ((phase[:, (1 << k) - 1:(2 << k) - 1] * c)
             * images[:, k]).reshape(n, -1, 1)
    return np.repeat(np.bitwise_xor.reduce(bits, axis=1), 1 << length), \
        z[:, -(1 << length):].ravel(), c.ravel()


# inf * 0 is NaN, as in Python; |c| past the float range is kept, as in prune
@np.errstate(over="ignore", invalid="ignore")
def jordan_wigner(op) -> PauliSum:
    """Map a FermionOperator to its qubit PauliSum.

    A string of L ladder operators expands into 2^L Pauli products, formed
    on ``np.uint64`` X/Z masks for the strings of one length together,
    about ``CHUNK_PRODUCTS`` products at a time.
    Equal products are summed in the order they arise, string by string,
    and the result lists each product where it first arises; modes must
    lie in 0..63.
    """
    if not op.terms:
        return PauliSum.zero(op.n_modes)
    strings = list(op.terms)
    coeffs = np.fromiter(op.terms.values(), complex, len(strings))
    lengths = np.fromiter(map(len, strings), np.intp, len(strings))
    end = np.cumsum(1 << lengths)
    xs, zs = np.empty((2, end[-1]), np.uint64)
    cs = np.empty(end[-1], complex)
    for length in set(lengths.tolist()):
        same = np.flatnonzero(lengths == length)
        step = max(1, CHUNK_PRODUCTS >> length)
        for s0 in range(0, len(same), step):
            idx = same[s0:s0 + step]
            ops = np.fromiter(chain.from_iterable(chain.from_iterable(
                map(strings.__getitem__, idx.tolist()))), np.int64,
                len(idx) * length * 2).reshape(len(idx), length, 2)
            if (ops[..., 0] // MAX_MODES).any():
                raise ValueError("modes outside 0..63 do not fit a 64-bit "
                                 "Pauli mask")
            pos = (end[idx, None] - np.arange(1 << length, 0, -1)).ravel()
            xs[pos], zs[pos], cs[pos] = _products(ops, coeffs[idx])
    order = np.lexsort((zs, xs))
    sx, sz = xs[order], zs[order]
    new = np.ones(len(cs), bool)
    new[1:] = (sx[1:] != sx[:-1]) | (sz[1:] != sz[:-1])
    group = np.empty(len(cs), np.intp)
    group[order] = np.cumsum(new) - 1
    first = order[new]
    by_first = np.argsort(first)
    re = np.bincount(group, cs.real)[by_first]
    im = np.bincount(group, cs.imag)[by_first]
    kept = ~negligible(np.hypot(re, im))
    first = first[by_first][kept]
    values = np.stack((re, im), axis=1)[kept].view(complex)[:, 0]
    return PauliSum(op.n_modes, dict(zip(
        map(tuple.__new__, repeat(PauliString),
            zip(xs[first].tolist(), zs[first].tolist())), values.tolist())))
