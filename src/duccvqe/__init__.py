"""Active-space downfolded Hamiltonians and simulated VQE.

Pipeline: integral ingestion -> second-quantized operators -> cluster
amplitudes (MP2/CCSD) -> double-unitary downfolding to an active space ->
Jordan-Wigner qubit mapping -> Trotterized UCCSD circuits -> VQE in the
(N, Sz) determinant sector, with exact-diagonalization oracles throughout.
"""

from .amplitudes import (ClusterAmplitudes, ccsd_solve, mp2_amplitudes,
                         mp2_energy, top_amplitudes)
from .ansatz import (Circuit, ExcitationList, Gate, enumerate_excitations,
                     resource_report, trotter_circuit, ucc_generator)
from .ducc import downfold
from .fermion import (ActiveSpace, FermionOperator, build_hamiltonian,
                      exact_ground_state, excitation_generator, hf_energy,
                      sector_hamiltonian)
from .integrals import (IntegralSet, SpinIntegralSet, builtin_fixture,
                        load_fcidump, load_spin_fcidump, save_fcidump,
                        save_spin_fcidump)
from .mapping import PauliString, PauliSum, jordan_wigner
from .simulator import apply, expectation, prepare_reference
from .vqe import VqeProblem, VqeResult, minimize, objective, warm_start

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
