"""Double-unitary downfolding: compress 4 orbitals into a 2-orbital active space.

The downfolded Hamiltonian H-bar = H + [H_N, sigma_ext]
+ 1/2 [[F_N, sigma_ext], sigma_ext] folds external-space correlation
(captured by the external part of the CCSD cluster operator) into dressed
one- and two-body integrals over the active orbitals, returned as a
SpinIntegralSet like any other spin-orbital Hamiltonian. The dressed active
problem is half the size but far more accurate than simply truncating the
bare Hamiltonian to the same orbitals.
"""

from duccvqe import builtin_fixture, ccsd_solve, downfold, exact_ground_state
from duccvqe.ducc import bare_restriction
from duccvqe.fermion import ActiveSpace
from duccvqe.integrals import load_spin_fcidump, save_spin_fcidump

# 4 spatial orbitals, orbital 1 occupied; active space = orbitals {1, 2}.
space = ActiveSpace.build(4, occupied=(1,), active_virtual=(2,))

print("geometry     E_FCI(full)    bare error   dressed error")
for name in ("h2_ducc_0.8", "h2_ducc_1.4008", "h2_ducc_4.0", "h2_ducc_10.0"):
    spin = builtin_fixture(name).to_spin_orbital()
    t, _ = ccsd_solve(spin, 2)

    e_full, _ = exact_ground_state(spin, 2, 0)
    dressed = downfold(spin, space, t)
    bare = bare_restriction(spin, space)
    e_dressed, _ = exact_ground_state(dressed, 2, 0)
    e_bare, _ = exact_ground_state(bare, 2, 0)

    label = name.split("_")[-1]
    print(f"{label:>8}   {e_full:+.10f}   {e_bare - e_full:+.6f}     "
          f"{e_dressed - e_full:+.6f}")

# Dressed integrals keep only the 4-element chemists symmetry group, so the
# serialized form is a spin-resolved (UHF) FCIDUMP. Round trip is exact:
spin = builtin_fixture("h2_ducc_1.4008").to_spin_orbital()
t, _ = ccsd_solve(spin, 2)
dressed = downfold(spin, space, t)
save_spin_fcidump(dressed, "/tmp/dressed_demo.fcidump", nelec=2)
back = load_spin_fcidump("/tmp/dressed_demo.fcidump")
e_a, _ = exact_ground_state(dressed, 2, 0)
e_b, _ = exact_ground_state(back, 2, 0)
print(f"\nFCIDUMP round-trip energy difference: {abs(e_a - e_b):.2e}")
