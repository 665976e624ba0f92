"""UCCSD Trotter circuits: synthesis, serialization, and resource accounting.

Every spin- and particle-conserving single and double excitation over the
active space becomes one variational parameter; each excitation compiles to
a block of Pauli-string exponentials (2 strings per single, 8 per double)
built from H / RX basis changes, a CNOT ladder, and one slot-parameterized
RZ. Resource numbers (gates, depth) come from a closed-form accounting that
matches greedy per-qubit depth counting on the materialized circuit. All
strings of one excitation share a support, so the accounting takes one step
per excitation: the 15 rows of the published table take 0.1-0.2 s, and the
60-orbital, 6-electron Li2 row (39,159 excitations) about 3 s on a 2-vCPU
machine.
"""

from duccvqe import enumerate_excitations, resource_report, trotter_circuit
from duccvqe.fermion import ActiveSpace

# Reproduce the published resource table: qubits, excitation count,
# CNOT-inclusive gate count, and circuit depth per (orbitals, electrons).
CASES = [(4, 2), (6, 2), (8, 2), (10, 2), (8, 6), (10, 6), (12, 6), (14, 6)]
print("orbitals electrons qubits excitations   gates    depth")
for n_orb, n_elec in CASES:
    space = ActiveSpace.build(n_orb, tuple(range(1, n_elec // 2 + 1)))
    exc = enumerate_excitations(space)
    rep = resource_report(exc)
    print(f"{n_orb:>8} {n_elec:>9} {rep.n_qubits:>6} {rep.n_excitations:>11} "
          f"{rep.gate_count:>7} {rep.depth:>8}")

# Small circuits can be materialized and serialized to a line-oriented text
# format (H / RX / CNOT / slot-parameterized RZ), and parsed back.
space = ActiveSpace.build(2, (1,))
circ = trotter_circuit(enumerate_excitations(space))
print(f"\n(2 orbitals, 2 electrons): {len(circ.gates)} gates, "
      f"depth {circ.depth()}, {circ.n_params} parameters")
text = circ.to_text()
print("first lines of the serialized circuit:")
for line in text.splitlines()[:6]:
    print(" ", line)

from duccvqe.ansatz import Circuit
assert Circuit.from_text(circ.n_qubits, circ.n_params, text).to_text() == text
print("text round trip: exact")
