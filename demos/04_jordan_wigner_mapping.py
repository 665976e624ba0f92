"""Jordan-Wigner mapping: fermionic operators as sparse Pauli-string sums.

Each fermionic mode p maps to qubit p (little-endian: qubit 0 is the least
significant bit of a basis-state index). Pauli strings are stored as (x, z)
bit-mask pairs, which makes products, commutators, and expectation values
cheap bitwise arithmetic.
"""

import numpy as np

from duccvqe import (build_hamiltonian, builtin_fixture, exact_ground_state,
                     jordan_wigner)
from duccvqe.fermion import FermionOperator
from duccvqe.simulator import expectation, prepare_reference

# A single creation operator picks up a Z parity chain on lower modes.
a2_dag = FermionOperator.from_term(4, ((2, 1),))
for string, coeff in jordan_wigner(a2_dag).terms.items():
    print(f"  {coeff} * {string.label()}")

# The full molecular Hamiltonian on 8 spin orbitals becomes a real sum of
# a few hundred commuting-structure Pauli terms.
spin = builtin_fixture("h2_ducc_1.4008").to_spin_orbital()
h = build_hamiltonian(spin)
hp = jordan_wigner(h).real()
print(f"\n8-qubit Hamiltonian: {len(hp)} Pauli terms")

# Expectation in the Hartree-Fock reference state |00000011> equals the HF
# energy, and the qubit and fermionic spectra agree.
hf_state = prepare_reference(8, occupied=(0, 1))
print(f"<HF| H |HF> = {expectation(hp, hf_state):+.10f}")

# The exact ground state comes back in the (N=2, ms=0) sector basis;
# scatter it onto a full 2^8 amplitude array, the state form of the
# simulator, to evaluate the qubit Hamiltonian.
e_fci, ground = exact_ground_state(spin, 2, 0)
from duccvqe.fermion import sector_determinants
full = np.zeros(2 ** 8, dtype=complex)
full[sector_determinants(8, 2, 0)] = ground
print(f"<FCI| H |FCI> = {expectation(hp, full):+.10f}"
      f"  (exact: {e_fci:+.10f})")

# Weight histogram: how many qubits each Pauli term touches.
weights = np.bincount([s.weight() for s in hp.terms])
print("term count by Pauli weight:",
      {w: int(c) for w, c in enumerate(weights) if c})
