"""MP2 and CCSD cluster amplitudes, correlation energies, and screening.

Cluster amplitudes serve two roles in the pipeline: CCSD amplitudes drive
the downfolding transformation (demo 03), and MP2 amplitudes provide both a
cheap importance screen for excitations and a warm start for VQE (demo 06).
"""

import numpy as np

from duccvqe import (ActiveSpace, builtin_fixture, ccsd_solve,
                     enumerate_excitations, mp2_amplitudes, mp2_energy,
                     top_amplitudes, warm_start)
from duccvqe.ansatz import screen_excitations

spin = builtin_fixture("h2_ducc_10.0").to_spin_orbital()

# Both solvers take the electron count N: the reference is the Hartree-Fock
# determinant with spin orbitals 0..N-1 occupied, so the amplitude arrays
# hold occupied spin orbitals 0..N-1 and virtual ones N.. in order.
t_mp2 = mp2_amplitudes(spin, 2)
print("MP2  correlation energy:", f"{mp2_energy(spin, t_mp2):+.10f}")

t_ccsd, e_ccsd = ccsd_solve(spin, 2)
print("CCSD correlation energy:", f"{e_ccsd:+.10f}")

# For a two-electron system CCSD is exact, so E_HF + E_CCSD matches the
# full-CI energy from demo 01 at this geometry (-1.1008953360).

print("\nlargest CCSD amplitudes (spatial-orbital labels):")
for label, value in top_amplitudes(t_ccsd, 5):
    print(f"  {label:<18} {value:+.8f}")

# Screening drops the UCCSD doubles whose amplitude is below a magnitude
# threshold and keeps every single; at a stretched geometry most of the
# amplitude weight sits in a few slots.
exc = enumerate_excitations(
    ActiveSpace.build(spin.n_spin_orbitals // 2, (1,)))
for thr in (1e-5, 1e-2, 1e-1):
    kept = screen_excitations(exc, t_ccsd, thr)
    n = np.count_nonzero(warm_start(t_ccsd, kept))
    print(f"threshold {thr:g}: {n} nonzero amplitudes survive")
