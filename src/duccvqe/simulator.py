"""Dense state-vector circuit execution and exact Pauli expectations.

Amplitudes are little-endian (qubit 0 is the least-significant bit of the
basis index). Expectations are computed term-wise from the X/Z bitmasks
without forming dense operators, so there is no shot noise anywhere.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np

from .fermion import CHUNK_EXCITATIONS, HERMITIAN_TOL
from .mapping import _PHASES

QUBIT_CAP = 24


class SimulatorError(Exception):
    """Register-size, slot-count, or hermiticity violations."""


def prepare_reference(n_qubits, occupied) -> np.ndarray:
    """Complex amplitudes, over 2^n_qubits basis states, of the
    computational-basis state with 1s on the occupied qubits."""
    if n_qubits > QUBIT_CAP:
        raise SimulatorError(f"{n_qubits} qubits exceed the cap {QUBIT_CAP}")
    occupied = set(occupied)
    if any(not 0 <= q < n_qubits for q in occupied):
        raise SimulatorError(f"occupied qubits {sorted(occupied)} "
                             f"outside 0..{n_qubits - 1}")
    amp = np.zeros(1 << n_qubits, dtype=complex)
    amp[sum(1 << q for q in occupied)] = 1.0
    return amp


def _apply_single(amp, q, mat):
    a = amp.reshape(-1, 2, 1 << q)
    a0 = a[:, 0, :].copy()
    a1 = a[:, 1, :]
    a[:, 0, :] = mat[0, 0] * a0 + mat[0, 1] * a1
    a[:, 1, :] = mat[1, 0] * a0 + mat[1, 1] * a1


def _apply_rz(amp, q, angle):
    a = amp.reshape(-1, 2, 1 << q)
    a[:, 0, :] *= np.exp(-0.5j * angle)
    a[:, 1, :] *= np.exp(0.5j * angle)


def _apply_cnot(amp, n, control, target):
    a = amp.reshape([2] * n)
    idx = [slice(None)] * n
    idx[n - 1 - control] = 1
    sub = a[tuple(idx)]
    t_axis = (n - 1 - target) - (1 if control > target else 0)
    sub[...] = np.flip(sub, axis=t_axis)


def _rx_matrix(angle):
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


_H_MATRIX = np.array([[1, 1], [1, -1]]) / math.sqrt(2)


def apply(circuit, params, amp) -> np.ndarray:
    """Run the circuit gate by gate on a copy of the amplitudes ``amp``."""
    n = circuit.n_qubits
    if len(amp) != 1 << n:
        raise SimulatorError(f"{n}-qubit circuit on "
                             f"{len(amp).bit_length() - 1}-qubit state")
    if len(params) != circuit.n_params:
        raise SimulatorError(
            f"{len(params)} parameters for {circuit.n_params} slots")
    amp = np.array(amp, dtype=complex)
    for g in circuit.gates:
        if g.name == "H":
            _apply_single(amp, g.qubits[0], _H_MATRIX)
        elif g.name == "RX":
            _apply_single(amp, g.qubits[0], _rx_matrix(g.angle))
        elif g.name == "RZ":
            _apply_rz(amp, g.qubits[0], g.resolved_angle(params))
        elif g.name == "CNOT":
            _apply_cnot(amp, n, *g.qubits)
        else:
            raise SimulatorError(f"unknown gate {g.name!r}")
    return amp


def expectation(h, amp) -> float:
    """Exact <psi|H|psi> for a Hermitian PauliSum and amplitudes ``amp``.

    P|k> = i^{nY} (-1)^{|k & z|} |k ^ x> for a string P, summed over the
    non-zero amplitudes only, about ``CHUNK_EXCITATIONS`` (string,
    amplitude) pairs at a time. An X or a Y past the state is an error.
    """
    n = len(h.terms)
    coeffs = np.fromiter(h.terms.values(), complex, n)
    if not (np.abs(coeffs.imag) <= HERMITIAN_TOL).all():
        raise SimulatorError("PauliSum has non-real coefficients")
    x, z = np.fromiter(chain.from_iterable(h.terms), np.uint64,
                       2 * n).reshape(n, 2).T
    if (x >= len(amp)).any():
        raise SimulatorError(f"X or Y on qubit {int(x.max()).bit_length() - 1}"
                             f" of a {len(amp).bit_length() - 1}-qubit state")
    kets = np.flatnonzero(amp)
    weights = coeffs * _PHASES[np.bitwise_count(x & z) & 3]
    rows = max(1, CHUNK_EXCITATIONS // max(1, len(kets)))
    val = 0.0 + 0.0j
    for k0 in range(0, len(kets), CHUNK_EXCITATIONS):
        k = kets[k0:k0 + CHUNK_EXCITATIONS].astype(np.uint64)
        ket = amp[k]
        for s0 in range(0, n, rows):
            xs, zs = x[s0:s0 + rows, None], z[s0:s0 + rows, None]
            signs = 1.0 - 2.0 * (np.bitwise_count(k & zs) & 1)
            bra = np.conj(amp[k ^ xs])
            val += weights[s0:s0 + rows] @ ((bra * signs) @ ket)
    if abs(val.imag) > HERMITIAN_TOL:
        raise SimulatorError(f"expectation has imaginary residue {val.imag}")
    return float(val.real)
