"""Simulated VQE: optimize the UCCSD ansatz against exact diagonalization.

The objective is the energy of the Trotterized UCCSD state prepared from
the Hartree-Fock reference. Each excitation's factor exp(theta kappa),
kappa = E - E^+, is applied in the (N, Sz) determinant sector as a
rotation of the determinant pairs that E connects, which gives the same
state as the circuit on the full qubit register at a fraction of the
cost. COBYLA (derivative-free) minimizes it; an MP2 warm start seeds the
doubles parameters.
"""

import numpy as np

from duccvqe import (builtin_fixture, enumerate_excitations,
                     exact_ground_state, minimize, mp2_amplitudes, warm_start)
from duccvqe.fermion import ActiveSpace
from duccvqe.vqe import CHEMICAL_ACCURACY, VqeProblem

spin = builtin_fixture("h2_ducc_1.4008").to_spin_orbital()
space = ActiveSpace.build(4, (1,))
exc = enumerate_excitations(space)
e_exact, _ = exact_ground_state(spin, 2, 0)

for label, x0 in (
    ("zero start", np.zeros(len(exc))),
    ("MP2 warm start",
     warm_start(mp2_amplitudes(spin, 2), exc)),
):
    res = minimize(VqeProblem(spin, exc, 2, x0))
    err = res.energy - e_exact
    print(f"{label:<15} E = {res.energy:+.10f}  "
          f"error vs exact = {err:+.2e}  "
          f"({res.n_evaluations} evaluations, converged={res.converged})")

print(f"\nchemical accuracy threshold: {CHEMICAL_ACCURACY} hartree")

# The optimizer trace records only strict improvements, so it is monotone.
res = minimize(VqeProblem(spin, exc, 2, np.zeros(len(exc))))
energies = [e for _, e in res.trace]
print(f"trace: {len(energies)} improvements, "
      f"first {energies[0]:+.6f} -> last {energies[-1]:+.6f}, "
      f"monotone={all(a > b for a, b in zip(energies, energies[1:]))}")
