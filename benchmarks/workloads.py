"""The three benchmark workloads: seeded inputs, one pass, checked answers.

Each pass takes every item of its workload to an answer that is checked
against the package's own oracles. Subcommands run in-process through
``cli.main``, exactly as ``ducc-vqe`` runs them; every other step uses the
public library functions. Functions are resolved through their modules at
call time, so the tracer's wrappers see these calls too.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import traceback

from duccvqe import cli, fermion, integrals, mapping, simulator
from duccvqe.vqe import CHEMICAL_ACCURACY

import hostspeed
from inputs import write_system

HF_TOL = 1e-10


def _cli(argv):
    """Run ``ducc-vqe argv`` in-process; (exit code, its --out output)."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    out = argv[argv.index("--out") + 1]
    if code != 0 or argv[0] == "downfold":
        return code, out
    with open(out) as fh:
        return code, json.load(fh)


class Tally:
    """Operations attempted and failed: CLI commands and checks.

    Also the time of every step of a pass (a command or a library call),
    scaled to the machine's nominal speed (``hostspeed``), by step, over
    all passes since the last ``take_times``, and their running total.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.times = {}
        self.scaled_s = 0.0

    def take_times(self):
        """Step -> its scaled times so far; starts a fresh record."""
        times, self.times = self.times, {}
        return times

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)
        return ok

    def call(self, what, func, *args):
        """func(*args), timed as step ``what``; an exception is reported
        and counts as a failure."""
        sampler = hostspeed.Sampler()
        try:
            with sampler:
                return func(*args)
        except Exception:
            traceback.print_exc()
            self.check(False, f"{what} raised")
            return None
        finally:
            scaled = sampler.scaled_s()
            self.times.setdefault(what, []).append(scaled)
            self.scaled_s += scaled

    def command(self, argv):
        """Run one subcommand; its output (or None) after counting it."""
        what = f"ducc-vqe {' '.join(argv)}"
        ran = self.call(what, _cli, argv)
        if ran is None:
            return None
        code, out = ran
        return out if self.check(code == 0, f"exit {code}: {what}") else None

    def close_to(self, a, b, tol, what):
        gap = None if a is None or b is None else abs(a - b)
        return self.check(gap is not None and gap <= tol,
                          f"{what}: gap {gap} vs tolerance {tol}")


def _value(tally, argv, out, key="energy"):
    """Run ``argv --out out``; ``key`` of its JSON output, or None."""
    result = tally.command([*argv, "--out", out])
    return None if result is None else result.get(key)


def setup_vqe_3orb(workdir, seed):
    # COBYLA needs 150-265 evaluations per system, varying with the seed;
    # six systems keep the seed's share of solve_s small
    return [write_system(workdir, seed, item, 3, 4) for item in range(6)]


def pass_vqe_3orb(items, workdir, tally):
    for n, item in enumerate(items):
        src = ["--integrals", item["path"]]
        e_vqe = _value(tally, ["vqe", *src, "--warm-start", "mp2"],
                       os.path.join(workdir, f"vqe{n}"))
        e_fci = _value(tally, ["eig", *src], os.path.join(workdir, f"eig{n}"))
        tally.close_to(e_vqe, e_fci, CHEMICAL_ACCURACY, f"VQE item {n}")


def setup_downfold_5orb(workdir, seed):
    return [write_system(workdir, seed, item, 5, 2) for item in (0, 1)]


def pass_downfold_5orb(items, workdir, tally):
    for n, item in enumerate(items):
        src = ["--integrals", item["path"]]
        dressed = tally.command(
            ["downfold", *src, "--active", "1,2",
             "--out", os.path.join(workdir, f"dressed{n}.fcidump")])
        e_dressed = None
        if dressed is not None:
            e_dressed = _value(tally, ["eig", "--integrals", dressed],
                               os.path.join(workdir, f"eig_dressed{n}"))
        e_fci = _value(tally, ["eig", *src], os.path.join(workdir, f"eig{n}"))
        tally.close_to(e_dressed, e_fci, CHEMICAL_ACCURACY,
                       f"dressed energy item {n}")


def setup_sector_ci_6orb(workdir, seed):
    return [write_system(workdir, seed, 0, 6, 6)]


def pass_sector_ci_6orb(items, workdir, tally):
    for n, item in enumerate(items):
        src = ["--integrals", item["path"]]
        e_fci = _value(tally, ["eig", *src], os.path.join(workdir, f"eig{n}"))
        e_ccsd = _value(tally, ["ccsd", *src],
                        os.path.join(workdir, f"ccsd{n}"), key="e_total")
        tally.close_to(e_ccsd, e_fci, CHEMICAL_ACCURACY, f"CCSD item {n}")

        energies = tally.call(f"HF energy item {n}", _hf_energies, item)
        if energies is not None:
            tally.close_to(*energies, HF_TOL,
                           f"HF energy via Jordan-Wigner item {n}")


def _hf_energies(item):
    """<HF|JW(H)|HF> on the state vector, and the closed-form HF energy."""
    nelec = item["electrons"]
    spin = integrals.load_fcidump(item["path"]).to_spin_orbital()
    qubit_h = mapping.jordan_wigner(fermion.build_hamiltonian(spin)).real()
    reference = simulator.prepare_reference(spin.n_spin_orbitals,
                                            range(nelec))
    return (simulator.expectation(qubit_h, reference),
            fermion.hf_energy(spin, fermion.hf_determinant(nelec)))


# name -> (set-up, one pass); why each was chosen lives in BENCHMARK.json
WORKLOADS = {
    "vqe_3orb": (setup_vqe_3orb, pass_vqe_3orb),
    "downfold_5orb": (setup_downfold_5orb, pass_downfold_5orb),
    "sector_ci_6orb": (setup_sector_ci_6orb, pass_sector_ci_6orb),
}
