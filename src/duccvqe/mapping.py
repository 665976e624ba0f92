"""Jordan-Wigner transformation and Pauli-string algebra.

Pauli strings are (x, z) tuples of X/Z bitmasks (qubit q is bit q; Y means
both bits set). Qubit k carries spin orbital k; creation maps to
(X - iY)/2 on the target qubit with a Z string on all lower qubits.
``jordan_wigner`` forms the 2^L Pauli products of a string of L ladder
operators on ``np.uint64`` masks, each with one closed-form phase, about
``CHUNK_PRODUCTS`` products at once, and merges equal products by one sort
of a packed key holding x, z and the product's position.
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

    def __mul__(self, factor):
        if not isinstance(factor, PauliSum):
            return super().__mul__(factor)
        out = PauliSum.zero(self.n_qubits)
        for s1, c1 in self.terms.items():
            for s2, c2 in factor.terms.items():
                phase, s = pauli_multiply(s1, s2)
                out.add_term(s, phase * c1 * c2)
        return out

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
# 2-vCPU VM, 8192 maps H of 6 and 8 seeded orbitals 18-43% faster than 1024
# and 2048 and within 5% of 4096, 2^14 and 2^15; 2^16 and 2^17 take 12-17%
# longer at 8 orbitals, and the traced peak grows from 7.9 to 9.8 MB
CHUNK_PRODUCTS = 1 << 13
_ONE = np.uint64(1)
_PHASES = np.array(_I_POWERS)


def _products(modes, dags, coeffs):
    """(x, z, coefficient) of the 2^L Pauli products of each of n strings
    of L ladder operators, from (L, n) arrays of modes m_k and dagger flags
    d_k; x comes back as (n,), z and the coefficients as (2^L, n).

    Product P takes the Y string of op k where bit L-1-k of P is set, the
    X string elsewhere. All share x = XOR 1<<m_k; z(P) = XOR((1<<m_k) - 1)
    ^ (the picked mode bits), and the coefficient is c 2^-L i^E with
    E = 2 (inv + |P & q|) - |x & z(P)| mod 4: inv counts the pairs j < k
    with m_j > m_k, and bit L-1-j of q is 1 - (d_j XOR r_j), r_j counting
    the ops after j on mode m_j. c is halved once per op, as a complex
    product, so subnormal parts round and non-finite ones turn NaN as when
    the ops are multiplied in one at a time; a string of no ops keeps c."""
    length, n = modes.shape
    if not length:
        return np.zeros(n, np.uint64), np.zeros((1, n), np.uint64), coeffs
    bits = _ONE << modes
    upto = np.bitwise_xor.accumulate(bits)
    x = upto[-1]
    # only parities count: inv from the mode bits of the ops before k above
    # m_k (none above 63), r_j from bit m_j of the XOR of the ops after j
    inv = np.bitwise_count((upto ^ bits) & -(bits << 1)).sum(axis=0)
    q = (((x ^ upto) >> modes ^ dags ^ 1) & 1) << 1
    z, twice = np.empty((2, 1 << length, n), np.uint64)
    z[0] = np.bitwise_xor.reduce(bits - 1, axis=0)
    twice[0] = (inv & 1) << 1
    for k in range(length):  # z and 2 |P & q|, one pick at a time
        h, op = 1 << k, length - 1 - k
        np.bitwise_xor(z[:h], bits[op], out=z[h:2 * h])
        np.bitwise_xor(twice[:h], q[op], out=twice[h:2 * h])
    for _ in range(length):
        coeffs = coeffs * 0.5
    twice -= np.bitwise_count(x & z)
    return x, z, coeffs * _PHASES[(twice & 3).view(np.intp)]


# inf * 0 is NaN, as in Python; |c| past the float range is kept, as in prune
@np.errstate(over="ignore", invalid="ignore")
def jordan_wigner(op) -> PauliSum:
    """Map a FermionOperator to its qubit PauliSum.

    All ladder operators are read in one ``np.fromiter``. A string of L of
    them expands into 2^L Pauli products, formed by ``_products`` on
    ``np.uint64`` X/Z masks for the strings of one length together, about
    ``CHUNK_PRODUCTS`` products at a time. Equal products meet in one
    ``np.sort`` of the key (x << w | z) << b | position, w = 1 + the largest
    mode and b the bits of the last position, when 2w + b <= 64; a wider
    key takes a stable lexsort of (x, z). Equal products are summed in the
    order they arise, string by string, and the result lists each product
    where it first arises; modes must lie in 0..63.
    """
    if not op.terms:
        return PauliSum.zero(op.n_modes)
    strings = list(op.terms)
    coeffs = np.fromiter(op.terms.values(), complex, len(strings))
    lengths = np.fromiter(map(len, strings), np.intp, len(strings))
    stops = np.cumsum(lengths)
    # a negative mode reads as a uint64 past 63
    modes, dags = np.fromiter(
        chain.from_iterable(chain.from_iterable(strings)), np.int64,
        2 * stops[-1]).view(np.uint64).reshape(-1, 2).T
    width = int(modes.max(initial=0)) + 1
    if width > MAX_MODES:
        raise ValueError("modes outside 0..63 do not fit a 64-bit Pauli mask")
    dags = dags != 0
    end = np.cumsum(1 << lengths)
    xs, zs = np.empty((2, end[-1]), np.uint64)
    cs = np.empty(end[-1], complex)
    for length in set(lengths.tolist()):
        same = np.flatnonzero(lengths == length)
        step = max(1, CHUNK_PRODUCTS >> length)
        ops = np.arange(-length, 0)[:, None]
        picks = np.arange(-(1 << length), 0)[:, None]
        for s0 in range(0, len(same), step):
            idx = same[s0:s0 + step]
            rows, pos = stops[idx] + ops, end[idx] + picks
            xs[pos], zs[pos], cs[pos] = _products(modes[rows], dags[rows],
                                                  coeffs[idx])
    shift = (len(cs) - 1).bit_length()
    new = np.ones(len(cs), bool)
    if 2 * width + shift <= 64:
        key = (xs << width | zs) << shift
        key |= np.arange(len(cs), dtype=np.uint64)
        key.sort()
        order = (key & (1 << shift) - 1).view(np.intp)
        key >>= shift
        new[1:] = key[1:] != key[:-1]
    else:
        order = np.lexsort((zs, xs))
        sx, sz = xs[order], zs[order]
        new[1:] = (sx[1:] != sx[:-1]) | (sz[1:] != sz[:-1])
    group = np.empty(len(cs), np.intp)
    group[order] = np.cumsum(new) - 1
    first = order[new]
    by_first = first.argsort()
    re = np.bincount(group, cs.real)[by_first]
    im = np.bincount(group, cs.imag)[by_first]
    kept = ~negligible(np.hypot(re, im))
    first = first[by_first][kept]
    values = re[kept].astype(complex)
    values.imag = im[kept]
    return PauliSum(op.n_modes, dict(zip(
        map(tuple.__new__, repeat(PauliString),
            zip(xs[first].tolist(), zs[first].tolist())), values.tolist())))
