"""Hybrid variational loop: COBYLA over UCC parameters against exact
energies in the (N, Sz = 0) determinant sector, with MP2 warm starts.

The Jordan-Wigner strings of one excitation commute, so the Trotterized
UCCSD circuit equals the ordered product of exp(theta_k kappa_k) with
kappa_k = E_k - E_k^+. On determinants kappa^3 = -kappa, which gives
exp(theta kappa) = 1 + sin(theta) kappa + (1 - cos(theta)) kappa^2, and the
state never leaves the sector of the Hartree-Fock determinant. The
objective applies these factors to sector vectors instead of running the
circuit on the 2^n state vector; the circuit stays the export format.

The optimizer runs through scipy's COBYLA with an evaluation-counting
wrapper; the returned point is the best one seen, and the trace keeps the
monotone best-so-far energy history.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .ansatz import ExcitationList
from .fermion import (DataError, checked_sector_hamiltonian,
                      excitation_matrix, hf_determinant, sector_determinants)
from .integrals import SpinIntegralSet

RHOBEG = 0.1
PARAM_TOL = 1e-6
MAX_EVALUATIONS = 100_000
CHEMICAL_ACCURACY = 1.6e-3


class VqeError(DataError):
    """Inconsistent problem definition."""


@dataclass
class VqeProblem:
    """Integrals + UCC excitation list + electron count + start point.

    Construction builds the sector matrices of the Hamiltonian, by
    ``checked_sector_hamiltonian`` as in ``exact_ground_state``, and of
    every excitation E_k, by ``excitation_matrix``, once over the
    (n_electrons, Sz = 0) determinants; ``objective`` then only rotates and
    multiplies sector vectors. A sector above ``SECTOR_DIM_CAP``
    determinants or a non-Hermitian H raises SectorError, an inf or NaN
    entry NonFiniteError.
    """

    integrals: SpinIntegralSet
    excitations: ExcitationList
    n_electrons: int
    initial_params: np.ndarray
    max_evaluations: int = MAX_EVALUATIONS

    def __post_init__(self):
        n_modes = self.excitations.n_spin_orbitals
        self.initial_params = np.asarray(self.initial_params, dtype=float)
        if self.initial_params.shape != (len(self.excitations),):
            raise VqeError(
                f"{self.initial_params.size} initial parameters for "
                f"{len(self.excitations)} excitation slots")
        if not np.all(np.isfinite(self.initial_params)):
            raise VqeError("initial parameters must be finite")
        if self.max_evaluations < 1:
            raise VqeError("the evaluation budget must be at least 1")
        if self.integrals.n_spin_orbitals != n_modes:
            raise VqeError(
                f"{self.integrals.n_spin_orbitals}-mode integrals for "
                f"{n_modes}-mode excitations")
        dets = sector_determinants(n_modes, self.n_electrons, 0)
        # a non-empty Sz = 0 sector holds the lowest n_electrons modes
        if not len(dets):
            raise VqeError(
                f"Hartree-Fock determinant of {self.n_electrons} electrons "
                f"outside the Sz = 0 sector of {n_modes} modes")
        self._reference = int(
            np.searchsorted(dets, hf_determinant(self.n_electrons)))
        self._hamiltonian = checked_sector_hamiltonian(self.integrals,
                                                       self.n_electrons, 0)
        self._generators = [excitation_matrix(key, dets)
                            for key in self.excitations.entries]


@dataclass
class VqeResult:
    energy: float
    params: np.ndarray
    n_evaluations: int
    trace: list = field(default_factory=list)
    converged: bool = True

    def to_json(self):
        return json.dumps({
            "energy": self.energy,
            "params": list(self.params),
            "n_evaluations": self.n_evaluations,
            "converged": self.converged,
            "trace": [[i, e] for i, e in self.trace],
        })


def objective(problem: VqeProblem, params) -> float:
    """E(theta) = <psi(theta)|H|psi(theta)>; deterministic, noise-free.

    psi(theta) applies exp(theta_k kappa_k) to the Hartree-Fock
    determinant in slot order, slot 0 first, as the circuit does.
    """
    if len(params) != len(problem._generators):
        raise VqeError(f"{len(params)} parameters for "
                       f"{len(problem._generators)} excitation slots")
    v = np.zeros(problem._hamiltonian.shape[0])
    v[problem._reference] = 1.0
    for theta, (rows, cols, signs) in zip(params, problem._generators):
        # v + sin(theta) kappa v + (1 - cos(theta)) kappa^2 v, in place on
        # the pairs of E, where kappa^2 v = -v; 1 - cos(theta) as
        # 2 sin^2(theta / 2), free of cancellation
        s, w = math.sin(theta), 2.0 * math.sin(0.5 * theta) ** 2
        v_r, v_c = v[rows], v[cols]
        v[rows] = v_r + s * (signs * v_c) + w * -v_r
        v[cols] = v_c + s * (-signs * v_r) + w * -v_c
    return float(v @ (problem._hamiltonian @ v))


class _BudgetSpent(Exception):
    """The evaluation budget ran out before COBYLA stopped."""


class _Tracker:
    """Counts evaluations, keeps the strictly-first best-seen point, and
    refuses to evaluate past the problem's budget."""

    def __init__(self, problem):
        self.problem = problem
        self.n_evaluations = 0
        self.best_energy = np.inf
        self.best_params = None
        self.trace = []

    def __call__(self, params):
        if self.n_evaluations >= self.problem.max_evaluations:
            raise _BudgetSpent
        energy = objective(self.problem, params)
        self.n_evaluations += 1
        if energy < self.best_energy:
            self.best_energy = energy
            self.best_params = np.array(params, dtype=float)
            self.trace.append((self.n_evaluations, energy))
        return energy


def minimize(problem: VqeProblem) -> VqeResult:
    """COBYLA from the problem's start point; returns the best-seen point.

    At most ``problem.max_evaluations`` evaluations run; a run that spends
    them all reports ``converged=False``.
    """
    tracker = _Tracker(problem)
    n_params = len(problem.excitations)
    if n_params == 0:
        energy = tracker(np.zeros(0))
        return VqeResult(energy, np.zeros(0), 1, tracker.trace, True)
    # imported here, not with the package: eig, ccsd and downfold never
    # load scipy.optimize
    from scipy import optimize
    try:
        res = optimize.minimize(
            tracker, problem.initial_params, method="COBYLA",
            # COBYLA raises a smaller budget to n + 2 with a warning; the
            # tracker enforces the problem's own budget instead
            options={"rhobeg": RHOBEG, "tol": PARAM_TOL,
                     "maxiter": max(problem.max_evaluations, n_params + 2)})
        converged = bool(res.success) \
            and tracker.n_evaluations < problem.max_evaluations
    except _BudgetSpent:
        converged = False
    return VqeResult(tracker.best_energy, tracker.best_params,
                     tracker.n_evaluations, tracker.trace, converged)


def warm_start(amps, exc) -> np.ndarray:
    """Parameter vector with amplitudes copied into matching slots.

    Each slot reads the amplitude of its key, t1[a, i] or t2[a, b, i, j];
    zero amplitudes (e.g. all MP2 singles) leave it zero.
    """
    params = np.zeros(len(exc))
    for slot, key in enumerate(exc.entries):
        if len(key) == 2:
            params[slot] = amps.get_t1(*key)
        else:
            params[slot] = amps.get_t2(*key)
    return params
