"""UCCSD excitation enumeration, Trotterized circuits, and gate accounting.

Each excitation carries one real parameter shared by all Pauli strings of
its Jordan-Wigner image; a first-order Trotter step exponentiates the
strings one at a time with the usual basis-change / CNOT-ladder / Rz
pattern. Resource reports use closed-form per-string accounting so large
active spaces never materialize their gate lists.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import combinations

from .fermion import ActiveSpace, FermionOperator, excitation_generator
from .mapping import jordan_wigner

RX_PLUS = math.pi / 2


class AnsatzError(Exception):
    """Inconsistent excitation/parameter/circuit data."""


@dataclass(frozen=True)
class ExcitationList:
    """Sz-conserving singles and doubles over compact active spin orbitals.

    Parameter slot k belongs to entries[k]; singles come first, each group
    lexicographic.
    """

    n_spin_orbitals: int
    singles: tuple
    doubles: tuple

    @property
    def entries(self):
        return self.singles + self.doubles

    def __len__(self):
        return len(self.singles) + len(self.doubles)

    @property
    def n_parameters(self):
        return len(self)


def enumerate_excitations(space: ActiveSpace,
                          n_electrons: int) -> ExcitationList:
    """All Sz-conserving singles and doubles in the compact active space.

    With o occupied and v active-virtual spatial orbitals this yields
    2ov singles and o^2 v^2 + 2 C(o,2) C(v,2) doubles.
    """
    if n_electrons % 2:
        raise AnsatzError("closed-shell reference requires even n_electrons")
    m = space.n_active_spin
    if n_electrons > m:
        raise AnsatzError(f"{n_electrons} electrons exceed {m} spin orbitals")
    occ = range(n_electrons)
    virt = range(n_electrons, m)
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

    def add(self, gate):
        self._check(gate)
        self.gates.append(gate)

    @property
    def gate_count(self):
        return len(self.gates)

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
        out = cls(n_qubits, n_params)
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                out.add(_parse_gate_line(line))
            except (ValueError, IndexError):
                raise AnsatzError(f"line {lineno}: bad gate {line!r}") from None
        return out


def _parse_gate_line(line):
    parts = line.split()
    name = parts[0].upper()
    if name in ("H", "CNOT"):
        return Gate(name, tuple(int(q) for q in parts[1:]))
    if name not in ("RX", "RZ"):
        raise ValueError(name)
    qubits = (int(parts[2]),)
    spec = parts[1]
    if spec.startswith("p"):
        slot_txt, _, scale_txt = spec[1:].partition("*")
        return Gate(name, qubits, slot=int(slot_txt),
                    scale=float(scale_txt) if scale_txt else 1.0)
    return Gate(name, qubits, angle=float(spec))


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


def _append_string_exponential(circ, string, slot, scale):
    support = string.support
    for q in support:
        code = string.code(q)
        if code == 1:
            circ.add(Gate("H", (q,)))
        elif code == 3:
            circ.add(Gate("RX", (q,), angle=RX_PLUS))
    for a, b in zip(support, support[1:]):
        circ.add(Gate("CNOT", (a, b)))
    circ.add(Gate("RZ", (support[-1],), slot=slot, scale=scale))
    for a, b in reversed(list(zip(support, support[1:]))):
        circ.add(Gate("CNOT", (a, b)))
    for q in support:
        code = string.code(q)
        if code == 1:
            circ.add(Gate("H", (q,)))
        elif code == 3:
            circ.add(Gate("RX", (q,), angle=-RX_PLUS))


def trotter_circuit(exc: ExcitationList) -> Circuit:
    """One first-order Trotter step of exp(sum theta_k (E_k - E_k^+)).

    Each Pauli string exp(i theta w P) becomes basis changes into the Z
    basis, a CNOT parity ladder, Rz(-2 w theta) on the last support qubit,
    and the mirrored uncomputation.
    """
    circ = Circuit(exc.n_spin_orbitals, len(exc))
    for slot, key in enumerate(exc.entries):
        for string, w in _pauli_exponentials(key, exc.n_spin_orbitals):
            _append_string_exponential(circ, string, slot, -2.0 * w)
    return circ


@dataclass(frozen=True)
class ResourceReport:
    """Table-style resource summary for a Trotterized UCCSD circuit."""

    n_qubits: int
    n_excitations: int
    n_parameters: int
    gate_count: int
    depth: int

    def to_json(self):
        return json.dumps({
            "n_qubits": self.n_qubits,
            "n_excitations": self.n_excitations,
            "n_parameters": self.n_parameters,
            "gate_count": self.gate_count,
            "depth": self.depth,
        })


def _excitation_blocks(key):
    """Contiguous support blocks shared by every JW string of one excitation.

    A string's support is the union of closed index ranges between paired
    modes; interior qubits carry Z, the excitation's own modes carry X/Y.
    """
    modes = sorted(key)
    if len(modes) == 2:
        return [(modes[0], modes[1])]
    return [(modes[0], modes[1]), (modes[2], modes[3])]


def _string_layer_update(level, support, endpoints):
    """Advance greedy-layer counters across one string exponential.

    Exact closed form: after the basis changes, an ascending CNOT ladder,
    the Rz, and the mirror, qubit j of the S-long support lands at
    2S + M - max(j, 1) (plus trailing basis change on endpoints), where
    M = max_j(entry level + basis bump - max(j - 1, 0)).
    """
    s = len(support)
    if s == 1:
        q = support[0]
        level[q] += 3 if q in endpoints else 1
        return
    m = max(level[q] + (1 if q in endpoints else 0) - max(j - 1, 0)
            for j, q in enumerate(support))
    for j, q in enumerate(support):
        level[q] = 2 * s + m - max(j, 1) + (1 if q in endpoints else 0)


def resource_report(exc: ExcitationList, space: ActiveSpace) -> ResourceReport:
    """Qubit, gate, and depth accounting without building the circuit.

    Per string of support size S: 2(S-1) CNOTs, one Rz, and a basis
    change on each side of every X/Y qubit; all strings of one excitation
    share a support, so singles cost 2(2S+3) gates and doubles 8(2S+7).
    """
    if exc.n_spin_orbitals != space.n_active_spin:
        raise AnsatzError("excitation list does not match the active space")
    gate_count = 0
    level = [0] * exc.n_spin_orbitals
    for key in exc.entries:
        blocks = _excitation_blocks(key)
        support = [q for lo, hi in blocks for q in range(lo, hi + 1)]
        s = len(support)
        endpoints = set(key)
        if len(key) == 2:
            gate_count += 2 * (2 * s + 3)
            n_strings = 2
        else:
            gate_count += 8 * (2 * s + 7)
            n_strings = 8
        for _ in range(n_strings):
            _string_layer_update(level, support, endpoints)
    return ResourceReport(space.n_active_spin, len(exc), len(exc),
                          gate_count, max(level, default=0))


def screen_excitations(exc: ExcitationList, amps,
                       threshold: float) -> ExcitationList:
    """Drop doubles whose amplitude magnitude is below threshold.

    Singles always survive, matching the MP2-screened UCCS(D) ansatz.
    """
    kept = tuple(key for key in exc.doubles
                 if abs(amps.get_t2(*key)) >= threshold)
    return ExcitationList(exc.n_spin_orbitals, exc.singles, kept)
