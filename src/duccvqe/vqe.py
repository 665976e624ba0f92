"""Hybrid variational loop: COBYLA over circuit parameters against exact
state-vector expectations, with MP2 warm starts.

The optimizer runs through scipy's COBYLA with an evaluation-counting
wrapper; the returned point is the best one seen, and the trace keeps the
monotone best-so-far energy history.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize

from . import simulator

RHOBEG = 0.1
PARAM_TOL = 1e-6
MAX_EVALUATIONS = 100_000
CHEMICAL_ACCURACY = 1.6e-3


class VqeError(Exception):
    """Inconsistent problem definition."""


@dataclass
class VqeProblem:
    """Hamiltonian + ansatz circuit + reference occupation + start point."""

    hamiltonian: object          # PauliSum
    circuit: object              # ansatz.Circuit
    occupied: tuple              # reference qubits set to |1>
    initial_params: np.ndarray
    rhobeg: float = RHOBEG
    tol: float = PARAM_TOL
    max_evaluations: int = MAX_EVALUATIONS

    def __post_init__(self):
        self.initial_params = np.asarray(self.initial_params, dtype=float)
        if self.initial_params.shape != (self.circuit.n_params,):
            raise VqeError(
                f"{self.initial_params.size} initial parameters for "
                f"{self.circuit.n_params} circuit slots")
        if self.hamiltonian.n_qubits != self.circuit.n_qubits:
            raise VqeError("Hamiltonian and circuit qubit counts differ")
        if not np.all(np.isfinite(self.initial_params)):
            raise VqeError("initial parameters must be finite")

    def reference_state(self):
        return simulator.prepare_reference(self.circuit.n_qubits,
                                           self.occupied)


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
    """E(theta) = <psi(theta)|H|psi(theta)>; deterministic, noise-free."""
    state = simulator.apply(problem.circuit, np.asarray(params, dtype=float),
                            problem.reference_state())
    return simulator.expectation(problem.hamiltonian, state)


class _Tracker:
    """Counts evaluations and keeps the strictly-first best-seen point."""

    def __init__(self, problem):
        self.problem = problem
        self.n_evaluations = 0
        self.best_energy = np.inf
        self.best_params = None
        self.trace = []

    def __call__(self, params):
        energy = objective(self.problem, params)
        self.n_evaluations += 1
        if energy < self.best_energy:
            self.best_energy = energy
            self.best_params = np.array(params, dtype=float)
            self.trace.append((self.n_evaluations, energy))
        return energy


def minimize(problem: VqeProblem) -> VqeResult:
    """COBYLA from the problem's start point; returns the best-seen point."""
    tracker = _Tracker(problem)
    if problem.circuit.n_params == 0:
        energy = tracker(np.zeros(0))
        return VqeResult(energy, np.zeros(0), 1, tracker.trace, True)
    res = optimize.minimize(
        tracker, problem.initial_params, method="COBYLA",
        options={"rhobeg": problem.rhobeg, "tol": problem.tol,
                 "maxiter": problem.max_evaluations})
    converged = bool(res.success) \
        and tracker.n_evaluations < problem.max_evaluations
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
