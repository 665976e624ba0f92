"""Load electron-integral fixtures and diagonalize the resulting Hamiltonians.

Four built-in FCIDUMP fixtures describe an H2-like two-electron system in a
four-orbital effective basis at bond lengths 0.8, 1.4008 (equilibrium), 4.0,
and 10.0 bohr. This script loads each one, expands it to interleaved spin
orbitals, and compares the Hartree-Fock energy against the exact (full-CI)
ground state, whose sector matrix is built straight from the integrals by
the Slater-Condon rules.
"""

import numpy as np

from duccvqe import builtin_fixture, exact_ground_state
from duccvqe.fermion import hf_determinant, hf_energy

GEOMETRIES = ["h2_ducc_0.8", "h2_ducc_1.4008", "h2_ducc_4.0", "h2_ducc_10.0"]

print("geometry     E_HF           E_FCI          E_corr")
for name in GEOMETRIES:
    ints = builtin_fixture(name)

    # Chemists-notation spatial integrals carry the real-orbital symmetry
    # group; to_spin_orbital() expands them to interleaved spin orbitals
    # (spatial p -> alpha qubit 2p-2, beta qubit 2p-1).
    spin = ints.to_spin_orbital()
    ref = hf_determinant(2)  # bit mask with the two lowest spin orbitals set

    e_hf = hf_energy(spin, ref)
    e_fci, ground = exact_ground_state(spin, n_electrons=2, ms2=0)

    label = name.split("_")[-1]
    print(f"{label:>8}   {e_hf:+.10f}  {e_fci:+.10f}  {e_fci - e_hf:+.8f}")

# The ground-state vector is normalized and expressed in the
# (N=2, ms=0) determinant-sector basis (dimension 16 here, not 2^8).
print(f"\nground-state sector dimension {ground.shape[0]}, "
      f"norm {np.linalg.norm(ground):.12f}")
