"""Spans around the public functions of each duccvqe module, from outside.

``Tracer.install`` replaces every module-level binding of a traced function
in every loaded ``duccvqe`` module with a wrapper that records a span
(name, start, end, parent id) plus a few counts read from the call's
arguments or result. Rebinding every alias matters because callers resolve
functions in different places: ``cli`` imports ``ccsd_solve`` and
``exact_ground_state`` by name, ``ducc`` binds ``commutator`` and
``fock_operator`` by name, ``vqe`` calls ``simulator.apply`` through the
module, and ``exact_ground_state`` finds ``sector_matrix`` as a ``fermion``
global.

A traced function that a later version of the package no longer has is
skipped; its metrics then read zero calls. Spans stay in memory until
``dump`` writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

import numpy as np


def _terms(result):
    return {"terms": len(result.terms)}


def _sector(args, result):
    op, dets = args[0], args[1]
    return {"dim": len(dets), "nnz": int(result.nnz),
            "op_terms": len(op.terms)}


def _dressed(result):
    return {"nonzero": int(np.count_nonzero(result.chi1)
                           + np.count_nonzero(result.chi2))}


def _applied(args):
    circuit, state = args[0], args[2]
    # computed, not measured: every gate streams the state in and out
    return {"bytes": len(circuit.gates) * (1 << state.n_qubits) * 16 * 2}


# module -> {function: count hook (args, result) -> dict, or None}
TRACED = {
    "integrals": {"load_fcidump": None, "load_spin_fcidump": None,
                  "is_spin_resolved": None, "save_fcidump": None,
                  "save_spin_fcidump": None},
    "fermion": {"build_hamiltonian": lambda a, r: _terms(r),
                "fock_operator": None,
                "hf_energy": None,
                "commutator": lambda a, r: _terms(r),
                "sector_matrix": _sector,
                "exact_ground_state": None},
    "amplitudes": {"mp2_amplitudes": None, "ccsd_solve": None},
    "ducc": {"downfold": None,
             "commutator_expand": lambda a, r: _terms(r),
             "project_active": lambda a, r: _dressed(r)},
    "mapping": {"jordan_wigner": lambda a, r: _terms(r)},
    "ansatz": {"enumerate_excitations": None,
               "trotter_circuit": lambda a, r: {"gates": len(r.gates),
                                                "params": r.n_params}},
    "simulator": {"prepare_reference": None,
                  "apply": lambda a, r: _applied(a),
                  "expectation": None},
    "vqe": {"minimize": lambda a, r: {"evaluations": r.n_evaluations,
                                      "improving": len(r.trace)}},
    "cli": {"main": lambda a, r: {"exit": r}},
}


class Tracer:
    """In-memory span recorder; single-threaded, like the workloads."""

    def __init__(self):
        self.spans = []          # [id, name, start, end, parent, info]
        self._stack = []
        self._restore = []

    @contextlib.contextmanager
    def span(self, name):
        record = self._open(name)
        try:
            yield record
        finally:
            self._close(record)

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        record = [len(self.spans), name, time.perf_counter(), None, parent, {}]
        self.spans.append(record)
        self._stack.append(record[0])
        return record

    def _close(self, record):
        record[3] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, func, hook):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(record)
            if hook is not None:
                try:
                    record[5] = hook(args, result)
                except (AttributeError, TypeError, IndexError) as exc:
                    record[5] = {"hook_error": repr(exc)}
            return result
        return traced

    def install(self):
        """Rebind every alias of every traced function; see module doc."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "duccvqe" or key.startswith("duccvqe.")]
        for mod_name, funcs in TRACED.items():
            home = sys.modules.get(f"duccvqe.{mod_name}")
            for func_name, hook in funcs.items():
                original = getattr(home, func_name, None)
                if not callable(original):
                    continue
                wrapper = self._wrap(f"{mod_name}.{func_name}", original,
                                     hook)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, attr, value))
                            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def dump(self, path):
        keys = ("id", "name", "start", "end", "parent", "info")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


def _subtree(spans, root_id):
    """Spans below ``root_id`` (spans are appended parent-first)."""
    inside = {root_id}
    out = []
    for s in spans[root_id + 1:]:
        if s[4] in inside:
            inside.add(s[0])
            out.append(s)
    return out


def layer_metrics(spans, root_id):
    """Per-layer metrics for the pass rooted at span ``root_id``.

    Times are inclusive sums over calls; self time subtracts direct
    children. Work counts (calls, evaluations, bytes, terms produced by
    commutators) are summed over the pass; sizes (terms in H and in the
    qubit Hamiltonian, H-bar terms, sector dimension and non-zeros, gates,
    parameters) are the largest instance in the pass.
    """
    below = _subtree(spans, root_id)
    child_time = {}
    for s in below:
        child_time[s[4]] = child_time.get(s[4], 0.0) + s[3] - s[2]
    by_name = {}
    for s in below:
        by_name.setdefault(s[1], []).append(s)

    def total(*names):
        return sum(s[3] - s[2] for n in names for s in by_name.get(n, ()))

    def self_time(name):
        return sum(s[3] - s[2] - child_time.get(s[0], 0.0)
                   for s in by_name.get(name, ()))

    def calls(*names):
        return sum(len(by_name.get(n, ())) for n in names)

    def info(name, key):
        return [s[5].get(key, 0) for s in by_name.get(name, ())]

    def largest(name, key):
        return max(info(name, key), default=0)

    def ratio(num, den):
        return num / den if den else 0.0

    loads = ("integrals.load_fcidump", "integrals.load_spin_fcidump",
             "integrals.is_spin_resolved")
    saves = ("integrals.save_fcidump", "integrals.save_spin_fcidump")
    evaluations = sum(info("vqe.minimize", "evaluations"))
    sectors = by_name.get("fermion.sector_matrix", ())
    big = max(sectors, key=lambda s: s[5].get("dim", 0), default=None)
    hbar_terms = info("ducc.commutator_expand", "terms")
    return {
        "simulator.apply_s": (total("simulator.apply"), "s"),
        "simulator.apply_calls": (calls("simulator.apply"), "count"),
        "simulator.expectation_s": (total("simulator.expectation"), "s"),
        "simulator.expectation_calls": (calls("simulator.expectation"),
                                        "count"),
        "simulator.bytes_computed": (sum(info("simulator.apply", "bytes")),
                                     "B"),
        "vqe.minimize_s": (total("vqe.minimize"), "s"),
        "vqe.evaluations": (evaluations, "count"),
        "vqe.s_per_eval": (ratio(total("vqe.minimize"), evaluations), "s"),
        "vqe.self_s": (self_time("vqe.minimize"), "s"),
        "vqe.improving_ratio": (
            ratio(sum(info("vqe.minimize", "improving")), evaluations),
            "ratio"),
        "ducc.downfold_s": (total("ducc.downfold"), "s"),
        "ducc.commutator_expand_s": (total("ducc.commutator_expand"), "s"),
        "ducc.project_active_s": (total("ducc.project_active"), "s"),
        "ducc.hbar_terms": (max(hbar_terms, default=0), "count"),
        "ducc.kept_ratio": (
            ratio(sum(info("ducc.project_active", "nonzero")),
                  sum(hbar_terms)), "ratio"),
        "fermion.commutator_s": (total("fermion.commutator"), "s"),
        "fermion.commutator_terms": (sum(info("fermion.commutator", "terms")),
                                     "count"),
        "fermion.exact_ground_state_s": (total("fermion.exact_ground_state"),
                                         "s"),
        "fermion.sector_matrix_s": (total("fermion.sector_matrix"), "s"),
        "fermion.sector_dim": (big[5].get("dim", 0) if big else 0, "count"),
        "fermion.sector_nnz": (big[5].get("nnz", 0) if big else 0, "count"),
        "fermion.sector_hit_ratio": (
            ratio(big[5].get("nnz", 0),
                  big[5].get("dim", 0) * big[5].get("op_terms", 0))
            if big else 0.0, "ratio"),
        "fermion.build_hamiltonian_s": (total("fermion.build_hamiltonian"),
                                        "s"),
        "fermion.h_terms": (largest("fermion.build_hamiltonian", "terms"),
                            "count"),
        "amplitudes.ccsd_s": (total("amplitudes.ccsd_solve"), "s"),
        "amplitudes.mp2_s": (total("amplitudes.mp2_amplitudes"), "s"),
        "mapping.jordan_wigner_s": (total("mapping.jordan_wigner"), "s"),
        "mapping.pauli_terms": (largest("mapping.jordan_wigner", "terms"),
                                "count"),
        "ansatz.trotter_circuit_s": (total("ansatz.trotter_circuit"), "s"),
        "ansatz.gates": (largest("ansatz.trotter_circuit", "gates"), "count"),
        "ansatz.params": (largest("ansatz.trotter_circuit", "params"),
                          "count"),
        "integrals.load_s": (total(*loads), "s"),
        "integrals.save_s": (total(*saves), "s"),
        "integrals.calls": (calls(*loads, *saves), "count"),
        "cli.main_s": (total("cli.main"), "s"),
        "cli.self_s": (self_time("cli.main"), "s"),
        "cli.nonzero_exits": (
            sum(1 for code in info("cli.main", "exit") if code), "count"),
    }


# machine-independent counts; they must repeat exactly for a given seed
EXACT_COUNTS = ("vqe.evaluations", "fermion.h_terms", "mapping.pauli_terms",
                "ducc.hbar_terms", "fermion.sector_dim", "fermion.sector_nnz",
                "ansatz.gates", "ansatz.params")
