"""UCCSD excitation enumeration, Trotterized circuits, and gate accounting.

Each excitation carries one real parameter shared by all Pauli strings of
its Jordan-Wigner image; a first-order Trotter step exponentiates the
strings one at a time with the usual basis-change / CNOT-ladder / Rz
pattern. Resource reports use one closed-form step per excitation so large
active spaces never materialize their gate lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

from .fermion import (ActiveSpace, DataError, FermionOperator,
                      excitation_generator)
from .integrals import data_lines
from .mapping import jordan_wigner

RX_PLUS = math.pi / 2

_GATE_ARITY = {"H": 1, "RX": 1, "RZ": 1, "CNOT": 2}


class AnsatzError(DataError):
    """Inconsistent excitation/parameter/circuit data."""


@dataclass(frozen=True)
class ExcitationList:
    """Sz-conserving singles and doubles over compact active spin orbitals.

    Parameter slot k belongs to entries[k]; singles come first, each group
    lexicographic. A key is (i, a) or (i, j, a, b), holes then particles:
    distinct modes of the register that keep Sz, else AnsatzError.
    """

    n_spin_orbitals: int
    singles: tuple
    doubles: tuple

    def __post_init__(self):
        modes = range(self.n_spin_orbitals)
        for size, keys in ((2, self.singles), (4, self.doubles)):
            for key in keys:
                spin = [p % 2 for p in key]
                if (not len(set(key)) == len(key) == size
                        or not all(p in modes for p in key)
                        or sum(spin[:size // 2]) != sum(spin[size // 2:])):
                    raise AnsatzError(f"malformed excitation key {key} on "
                                      f"{self.n_spin_orbitals} spin orbitals")

    @property
    def entries(self):
        return self.singles + self.doubles

    def __len__(self):
        return len(self.singles) + len(self.doubles)


def enumerate_excitations(space: ActiveSpace) -> ExcitationList:
    """All Sz-conserving singles and doubles in the compact active space,
    holes on the occupied modes of ``space``.

    With o occupied and v active-virtual spatial orbitals this yields
    2ov singles and o^2 v^2 + 2 C(o,2) C(v,2) doubles.
    """
    m, o = space.n_active_spin, len(space.occupied_spin)
    occ, virt = range(o), range(o, m)
    # compact interleaving keeps spin = index parity
    singles = tuple((i, a) for i in occ for a in virt if i % 2 == a % 2)
    doubles = tuple((i, j, a, b)
                    for i, j in combinations(occ, 2)
                    for a, b in combinations(virt, 2)
                    if i % 2 + j % 2 == a % 2 + b % 2)
    return ExcitationList(m, singles, doubles)


def ucc_generator(exc: ExcitationList, params) -> FermionOperator:
    """Anti-Hermitian sum theta_k (E_k - E_k^+) over the excitation list."""
    if len(params) != len(exc):
        raise AnsatzError(
            f"{len(params)} parameters for {len(exc)} excitations")
    out = FermionOperator.zero(exc.n_spin_orbitals)
    for key, theta in zip(exc.entries, params):
        if theta == 0.0:
            continue
        out = out + excitation_generator(key, exc.n_spin_orbitals) \
            * float(theta)
    return out.prune()


@dataclass(frozen=True)
class Gate:
    """H, RX (fixed angle), RZ (fixed or slot-parameterized), or CNOT.

    A parameterized RZ rotates by scale * params[slot].
    """

    name: str
    qubits: tuple
    angle: float = 0.0
    slot: int = None
    scale: float = 1.0

    def resolved_angle(self, params):
        if self.slot is None:
            return self.angle
        return self.scale * params[self.slot]

    def to_line(self):
        qubits = " ".join(str(q) for q in self.qubits)
        if self.name == "RZ" and self.slot is not None:
            return f"RZ p{self.slot}*{self.scale:.17g} {qubits}"
        if self.name in ("RX", "RZ"):
            return f"{self.name} {self.angle:.17g} {qubits}"
        return f"{self.name} {qubits}"


@dataclass
class Circuit:
    """Ordered gate list over n_qubits with n_params parameter slots."""

    n_qubits: int
    n_params: int
    gates: list = field(default_factory=list)

    def __post_init__(self):
        for g in self.gates:
            self._check(g)

    def _check(self, gate):
        if any(not 0 <= q < self.n_qubits for q in gate.qubits):
            raise AnsatzError(f"gate {gate.name} off the {self.n_qubits}"
                              f"-qubit register: {gate.qubits}")
        if gate.slot is not None and not 0 <= gate.slot < self.n_params:
            raise AnsatzError(f"parameter slot {gate.slot} out of range")
        if gate.slot is not None and gate.name != "RZ":
            raise AnsatzError(f"gate {gate.name} cannot take a parameter slot")
        arity = _GATE_ARITY.get(gate.name)
        if len(gate.qubits) != arity or len(set(gate.qubits)) != arity:
            raise AnsatzError(f"gate {gate.name} needs {arity} distinct "
                              f"qubits, got {gate.qubits}")
        if not (math.isfinite(gate.angle) and math.isfinite(gate.scale)):
            raise AnsatzError(f"gate {gate.name} has a non-finite angle")

    def add(self, gate):
        self._check(gate)
        self.gates.append(gate)

    def depth(self):
        """Greedy layering: gates on disjoint qubits share a layer."""
        level = [0] * self.n_qubits
        for g in self.gates:
            layer = 1 + max(level[q] for q in g.qubits)
            for q in g.qubits:
                level[q] = layer
        return max(level, default=0)

    def to_text(self):
        return "".join(g.to_line() + "\n" for g in self.gates)

    @classmethod
    def from_text(cls, n_qubits, n_params, text):
        """Parse ``to_text`` output; AnsatzError on the first bad line."""
        out = cls(n_qubits, n_params)
        for lineno, line in data_lines(text.splitlines()):
            try:
                out.add(_parse_gate_line(line))
            except (ValueError, AnsatzError) as exc:
                raise AnsatzError(
                    f"line {lineno}: bad gate {line!r}: {exc}") from None
        return out


def _parse_gate_line(line):
    name, *args = line.split()
    name = name.upper()
    if name in ("H", "CNOT"):
        return Gate(name, tuple(int(q) for q in args))
    if name not in ("RX", "RZ"):
        raise ValueError(name)
    spec, qubit = args
    if spec.startswith("p"):
        slot_txt, _, scale_txt = spec[1:].partition("*")
        return Gate(name, (int(qubit),), slot=int(slot_txt),
                    scale=float(scale_txt) if scale_txt else 1.0)
    return Gate(name, (int(qubit),), angle=float(spec))


def _pauli_exponentials(key, n_modes):
    """JW strings of E - E^+ as (PauliString, w) with coefficient i*w."""
    image = jordan_wigner(excitation_generator(key, n_modes))
    out = []
    for string, c in image.terms.items():
        c = complex(c)
        if abs(c.real) > 1e-14:
            raise AnsatzError("generator image has a real coefficient")
        out.append((string, c.imag))
    return out


def _basis_change(string, rx_angle):
    """H on the X qubits of ``string`` and RX(rx_angle) on its Y qubits."""
    return [Gate("H", (q,)) if string.code(q) == 1
            else Gate("RX", (q,), angle=rx_angle)
            for q in string.support if string.code(q) in (1, 3)]


def _string_exponential(string, slot, scale):
    """The gates of one Pauli exponential, as ``trotter_circuit`` lays out."""
    support = string.support
    ladder = [Gate("CNOT", pair) for pair in zip(support, support[1:])]
    return (_basis_change(string, RX_PLUS) + ladder
            + [Gate("RZ", (support[-1],), slot=slot, scale=scale)]
            + ladder[::-1] + _basis_change(string, -RX_PLUS))


def trotter_circuit(exc: ExcitationList) -> Circuit:
    """One first-order Trotter step of exp(sum theta_k (E_k - E_k^+)).

    Each Pauli string exp(i theta w P) becomes basis changes into the Z
    basis, a CNOT parity ladder, Rz(-2 w theta) on the last support qubit,
    and the mirrored uncomputation. These gates are valid by construction,
    so they join the circuit without ``Circuit.add``'s check.
    """
    circ = Circuit(exc.n_spin_orbitals, len(exc))
    for slot, key in enumerate(exc.entries):
        for string, w in _pauli_exponentials(key, exc.n_spin_orbitals):
            circ.gates += _string_exponential(string, slot, -2.0 * w)
    return circ


@dataclass(frozen=True)
class ResourceReport:
    """Table-style resource summary for a Trotterized UCCSD circuit."""

    n_qubits: int
    n_excitations: int
    gate_count: int
    depth: int


def resource_report(exc: ExcitationList) -> ResourceReport:
    """Qubit, gate, and depth accounting without building the circuit.

    The n = 2 (single) or 8 (double) JW strings of one excitation share one
    support of S qubits, each mode pair's lower mode to its upper, with X/Y
    on the excitation's own modes. A string costs 2(S-1) CNOTs, one Rz and
    two basis changes per X/Y qubit. Greedy depth in closed form: after one
    string, support qubit j sits at 2S + M - max(j, 1) (+1 on X/Y), with
    M = max_j(entry level (+1 on X/Y) - max(j - 1, 0)). The lowest support
    qubit is X/Y, so each further string raises M by exactly 2S + 1, and
    one step with M + (n - 1)(2S + 1) covers all n strings.
    """
    gate_count = 0
    level = [0] * exc.n_spin_orbitals
    for key in exc.entries:
        modes = sorted(key)
        support = [q for lo, hi in zip(modes[::2], modes[1::2])
                   for q in range(lo, hi + 1)]
        s = len(support)
        n_strings = 2 if len(key) == 2 else 8
        gate_count += n_strings * (2 * (s - 1) + 1 + 2 * len(key))
        m = max(level[q] + (q in key) - max(j - 1, 0)
                for j, q in enumerate(support))
        m += (n_strings - 1) * (2 * s + 1)
        for j, q in enumerate(support):
            level[q] = 2 * s + m - max(j, 1) + (q in key)
    return ResourceReport(exc.n_spin_orbitals, len(exc), gate_count,
                          max(level, default=0))


def check_threshold(threshold: float):
    """AnsatzError for a screening threshold that is NaN, infinite or
    negative."""
    if not 0.0 <= threshold < math.inf:
        raise AnsatzError(f"screening threshold must be finite and "
                          f"non-negative, got {threshold}")


def screen_excitations(exc: ExcitationList, amps,
                       threshold: float) -> ExcitationList:
    """Drop doubles whose amplitude magnitude is below threshold.

    Singles always survive, matching the MP2-screened UCCS(D) ansatz.
    """
    check_threshold(threshold)
    kept = tuple(key for key in exc.doubles
                 if abs(amps.get_t2(*key)) >= threshold)
    return ExcitationList(exc.n_spin_orbitals, exc.singles, kept)
