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
from scipy import optimize

from .ansatz import ExcitationList
from .fermion import (DENSE_SECTOR_LIMIT, SECTOR_DIM_CAP, FermionOperator,
                      SectorError, excitation_generator, hf_determinant,
                      sector_determinants, sector_matrix)

RHOBEG = 0.1
PARAM_TOL = 1e-6
MAX_EVALUATIONS = 100_000
CHEMICAL_ACCURACY = 1.6e-3
SYMMETRY_TOL = 1e-10


class VqeError(Exception):
    """Inconsistent problem definition."""


@dataclass
class VqeProblem:
    """Hamiltonian + UCC excitation list + electron count + start point.

    Construction builds the sector matrices of the Hamiltonian and of every
    generator kappa_k once, over the (n_electrons, Sz = 0) determinants;
    ``objective`` then only multiplies sector vectors. The Hamiltonian is
    dense below ``DENSE_SECTOR_LIMIT`` determinants and CSR above, as in
    ``exact_ground_state``; each kappa_k has at most one non-zero per
    column and stays CSR.
    """

    hamiltonian: FermionOperator
    excitations: ExcitationList
    n_electrons: int
    initial_params: np.ndarray
    rhobeg: float = RHOBEG
    tol: float = PARAM_TOL
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
        if self.hamiltonian.n_modes != n_modes:
            raise VqeError(
                f"{self.hamiltonian.n_modes}-mode Hamiltonian for "
                f"{n_modes}-mode excitations")
        dets = sector_determinants(n_modes, self.n_electrons, 0)
        if len(dets) > SECTOR_DIM_CAP:
            raise SectorError(
                f"sector dimension {len(dets)} exceeds cap {SECTOR_DIM_CAP}")
        hf = hf_determinant(self.n_electrons) if dets else None
        if hf not in dets:
            raise VqeError(
                f"Hartree-Fock determinant of {self.n_electrons} electrons "
                f"outside the Sz = 0 sector of {n_modes} modes")
        self._reference = dets.index(hf)
        h = sector_matrix(self.hamiltonian, dets)
        if max(abs(h - h.T).max(), abs(h.imag).max()) > SYMMETRY_TOL:
            raise VqeError("Hamiltonian is not real-symmetric in the sector")
        h = h.real
        self._hamiltonian = h.toarray() if len(dets) < DENSE_SECTOR_LIMIT \
            else h
        self._generators = [
            sector_matrix(excitation_generator(key, n_modes), dets)
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
    for theta, kappa in zip(params, problem._generators):
        kv = kappa @ v
        # 1 - cos(theta) as 2 sin^2(theta / 2), free of cancellation
        v = v + math.sin(theta) * kv \
            + 2.0 * math.sin(0.5 * theta) ** 2 * (kappa @ kv)
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
    try:
        res = optimize.minimize(
            tracker, problem.initial_params, method="COBYLA",
            # COBYLA raises a smaller budget to n + 2 with a warning; the
            # tracker enforces the problem's own budget instead
            options={"rhobeg": problem.rhobeg, "tol": problem.tol,
                     "maxiter": max(problem.max_evaluations, n_params + 2)})
        converged = bool(res.success) \
            and tracker.n_evaluations < problem.max_evaluations
    except _BudgetSpent:
        converged = False
    return VqeResult(tracker.best_energy, tracker.best_params,
                     tracker.n_evaluations, tracker.trace, converged)


def warm_start(amps, exc) -> np.ndarray:
    """Parameter vector with amplitudes copied into matching slots.

    Doubles are read through the canonical (i<j, a<b) sign convention;
    absent amplitudes (e.g. all MP2 singles) stay zero.
    """
    params = np.zeros(len(exc))
    for slot, key in enumerate(exc.entries):
        if len(key) == 2:
            params[slot] = amps.get_t1(*key)
        else:
            params[slot] = amps.get_t2(*key)
    return params
