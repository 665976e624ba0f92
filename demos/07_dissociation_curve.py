"""Potential-energy points across bond lengths and the dissociation energy.

Runs exact diagonalization and an MP2-warm-started UCCSD VQE (two
electrons in the four-orbital sector) at each fixture geometry and reports
E_D = E(stretched) - E(minimum), the dissociation energy on this grid.
The same workflow is exposed by the `ducc-vqe pes` subcommand for manifests
of FCIDUMP files.
"""

import numpy as np

from duccvqe import (build_hamiltonian, builtin_fixture, enumerate_excitations,
                     exact_ground_state, minimize, mp2_amplitudes, warm_start)
from duccvqe.fermion import ActiveSpace, hf_determinant
from duccvqe.vqe import VqeProblem

GEOMETRIES = [("0.8", "h2_ducc_0.8"), ("1.4008", "h2_ducc_1.4008"),
              ("4.0", "h2_ducc_4.0"), ("10.0", "h2_ducc_10.0")]

space = ActiveSpace.build(4, (1,))
exc = enumerate_excitations(space, 2)

rows = []
print("r (bohr)   E_eig          E_vqe          |E_vqe - E_eig|")
for label, name in GEOMETRIES:
    spin = builtin_fixture(name).to_spin_orbital()
    h = build_hamiltonian(spin)
    e_eig, _ = exact_ground_state(h, 2, 0)
    x0 = warm_start(mp2_amplitudes(spin, hf_determinant(2)), exc)
    res = minimize(VqeProblem(h, exc, 2, x0))
    rows.append((label, e_eig, res.energy))
    print(f"{label:>8}   {e_eig:+.10f}  {res.energy:+.10f}  "
          f"{abs(res.energy - e_eig):.2e}")

energies = np.array([e for _, e, _ in rows])
e_d = rows[-1][1] - energies.min()
print(f"\ndissociation energy E_D (exact curve): {e_d:+.8f} hartree")
print(f"minimum on this grid at r = {rows[int(energies.argmin())][0]} bohr")
