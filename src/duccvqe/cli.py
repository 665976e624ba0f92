"""Command-line surface: resource tables, exact diagonalization, VQE runs,
downfolding, amplitude generation, and potential-energy-surface sweeps.

Exit codes: 0 success, 2 usage errors, 3 data errors (missing/malformed
files, inconsistent sectors), 4 non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

import numpy as np

from . import ansatz as ansatz_mod
from . import ducc as ducc_mod
from . import integrals as integrals_mod
from . import vqe
from .amplitudes import (ConvergenceError, ccsd_solve, check_top,
                         load_amplitudes, mp2_amplitudes, mp2_energy,
                         save_amplitudes, top_amplitudes)
from .fermion import (ActiveSpace, DataError, check_finite,
                      exact_ground_state, hf_determinant, hf_energy)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_CONVERGENCE = 4

MP2_SCREEN_DEFAULT = 1e-5
NEGATIVE_NUMBER = re.compile(r"-(\d+\.?\d*|\.\d+)(e[+-]?\d+)?|-(inf|nan)",
                             re.IGNORECASE)


def _load_spin(path, nelec=None, ms2=None, reference=False):
    """Read one integral file into (SpinIntegralSet, nelec, ms2); the
    header's NELEC and MS2 stand in for counts left unset. With
    ``reference`` an MS2 other than nelec % 2, the MS2 of
    hf_determinant(nelec), is a data error."""
    ints, file_nelec, file_ms2 = integrals_mod.read_fcidump(path)
    spin = ints if isinstance(ints, integrals_mod.SpinIntegralSet) \
        else ints.to_spin_orbital()
    nelec = file_nelec if nelec is None else nelec
    ms2 = file_ms2 if ms2 is None else ms2
    if nelec < 1 or nelec > spin.n_spin_orbitals:
        raise DataError(f"bad electron count {nelec} for "
                        f"{spin.n_spin_orbitals} spin orbitals")
    if reference and ms2 != nelec % 2:
        raise DataError(f"MS2={ms2}, but the reference determinant of "
                        f"{nelec} electrons has MS2={nelec % 2}")
    return spin, nelec, ms2


def _load_input(args, reference=True):
    """_load_spin on the --fixture or --integrals input."""
    path = integrals_mod.fixture_path(args.fixture) if args.fixture \
        else args.integrals
    return _load_spin(path, args.nelec, getattr(args, "ms2", None), reference)


def _emit(args, text):
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def cmd_resources(args):
    if args.orbitals < 1:
        raise DataError(f"--orbitals {args.orbitals} is below 1")
    if args.electrons < 0:
        raise DataError(f"--electrons {args.electrons} is negative")
    # read only with --integrals, but checked without it too
    ansatz_mod.check_threshold(args.mp2_threshold)
    o, v = args.electrons // 2, args.orbitals - args.electrons // 2
    if args.electrons % 2:
        raise DataError("closed-shell resources need an even --electrons")
    if v < 0:
        raise DataError("--electrons exceeds capacity of --orbitals")
    space = ActiveSpace.build(args.orbitals, tuple(range(1, o + 1)))
    exc = ansatz_mod.enumerate_excitations(space)
    report = ansatz_mod.resource_report(exc)
    row = {
        "orbitals": args.orbitals,
        "n_qubits": report.n_qubits,
        "excitations": report.n_excitations,
        "parameters": report.n_excitations,
        "gates": report.gate_count,
        "depth": report.depth,
    }
    if args.integrals:
        spin, _, _ = _load_spin(args.integrals, args.electrons, reference=True)
        if spin.n_spin_orbitals != 2 * args.orbitals:
            raise DataError(f"{args.integrals} has "
                            f"{spin.n_spin_orbitals // 2} orbitals, "
                            f"--orbitals is {args.orbitals}")
        t_mp2 = mp2_amplitudes(spin, args.electrons)
        screened = ansatz_mod.screen_excitations(exc, t_mp2,
                                                 args.mp2_threshold)
        srep = ansatz_mod.resource_report(screened)
        row.update(screened_excitations=srep.n_excitations,
                   screened_gates=srep.gate_count,
                   screened_depth=srep.depth)
    if args.format == "csv":
        _emit(args, ",".join(row) + "\n" + ",".join(str(x)
                                                    for x in row.values()))
    else:
        width = max(len(k) for k in row)
        _emit(args, "\n".join(f"{k:<{width}}  {v}" for k, v in row.items()))
    return EXIT_OK


def cmd_eig(args):
    spin, nelec, ms2 = _load_input(args, reference=False)
    energy, _ = exact_ground_state(spin, nelec, ms2)
    _emit(args, json.dumps({"energy": energy, "nelec": nelec, "ms2": ms2}))
    return EXIT_OK


def _mp2(spin, nelec):
    t = mp2_amplitudes(spin, nelec)
    return t, mp2_energy(spin, t)


def cmd_amplitudes(args):
    """mp2 and ccsd: solve(spin, nelec) gives (amplitudes, E_corr); the
    solver is looked up here, so that a rebinding of ``ccsd_solve`` holds.
    A bad --top is refused before anything is read, solved or written."""
    check_top(args.top)
    spin, nelec, _ = _load_input(args)
    solve = ccsd_solve if args.command == "ccsd" else _mp2
    t, e_corr = solve(spin, nelec)
    e_hf = hf_energy(spin, hf_determinant(nelec))
    check_finite("the total energy is inf or NaN", e_hf + e_corr)
    if args.amplitudes_out:
        save_amplitudes(t, args.amplitudes_out)
    _emit(args, json.dumps({
        "e_hf": e_hf, "e_corr": e_corr, "e_total": e_hf + e_corr,
        "top_amplitudes": top_amplitudes(t, args.top)}))
    return EXIT_OK


def _parse_active(spec, n_orbitals, nelec):
    orbitals = sorted({int(tok) for tok in spec.replace(",", " ").split()})
    occupied = tuple(range(1, nelec // 2 + 1))
    missing = [p for p in occupied if p not in orbitals]
    if missing:
        raise DataError(f"--active must include occupied orbitals "
                        f"{missing}")
    virtuals = tuple(p for p in orbitals if p not in occupied)
    return ActiveSpace.build(n_orbitals, occupied, virtuals)


def cmd_downfold(args):
    spin, nelec, _ = _load_input(args)
    if nelec % 2:
        raise DataError("downfolding assumes a closed-shell reference")
    space = _parse_active(args.active, spin.n_spin_orbitals // 2, nelec)
    if args.amplitudes:
        t = load_amplitudes(args.amplitudes, nelec, spin.n_spin_orbitals)
    else:
        t, _ = ccsd_solve(spin, nelec)
    dh = ducc_mod.downfold(spin, space, t)
    integrals_mod.save_spin_fcidump(dh, args.out, nelec)
    print(json.dumps({"out": args.out, "n_active_spin": dh.n_spin_orbitals,
                      "scalar": dh.scalar_shift}))
    return EXIT_OK


def _vqe_run(spin, nelec, warm, screen_threshold=None,
             max_evaluations=vqe.MAX_EVALUATIONS):
    if nelec % 2:
        raise DataError("the UCCSD reference here is closed-shell")
    n_orbitals = spin.n_spin_orbitals // 2
    space = ActiveSpace.build(n_orbitals, tuple(range(1, nelec // 2 + 1)))
    exc = ansatz_mod.enumerate_excitations(space)
    if warm == "mp2" or screen_threshold is not None:
        t_mp2 = mp2_amplitudes(spin, nelec)
    if screen_threshold is not None:
        exc = ansatz_mod.screen_excitations(exc, t_mp2, screen_threshold)
    x0 = vqe.warm_start(t_mp2, exc) if warm == "mp2" \
        else np.zeros(len(exc))
    problem = vqe.VqeProblem(spin, exc, nelec, x0,
                             max_evaluations=max_evaluations)
    return vqe.minimize(problem)


def cmd_vqe(args):
    spin, nelec, _ = _load_input(args)
    result = _vqe_run(spin, nelec, args.warm_start, args.screen_threshold,
                      args.max_evaluations)
    _emit(args, result.to_json())
    return EXIT_OK if result.converged else EXIT_CONVERGENCE


def _read_manifest(path):
    rows = []
    with open(path) as fh:
        for lineno, line in integrals_mod.data_lines(fh):
            parts = line.split()
            if len(parts) != 2 or "," in parts[0]:
                raise DataError(f"{path}:{lineno}: expected 'label "
                                "fixture-or-file', a label without ','")
            rows.append(tuple(parts))
    if not rows:
        raise DataError(f"{path}: empty manifest")
    return rows


def _pes_point(source, methods, nelec, ms2):
    if source in integrals_mod.FIXTURE_NAMES:
        source = integrals_mod.fixture_path(source)
    spin, nelec, ms2 = _load_spin(source, nelec, ms2, "vqe" in methods)
    out = {}
    if "eig" in methods:
        out["eig"], _ = exact_ground_state(spin, nelec, ms2)
    if "vqe" in methods:
        out["vqe"] = _vqe_run(spin, nelec, "mp2").energy
    return out


def cmd_pes(args):
    rows = _read_manifest(args.manifest)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods or any(m not in ("eig", "vqe") for m in methods):
        raise DataError(f"--methods must name eig and/or vqe, "
                        f"got {args.methods!r}")
    if args.reference is not None and args.reference not in methods:
        raise DataError(f"--reference {args.reference!r} is not among "
                        f"--methods {args.methods!r}")
    energies = [_pes_point(src, methods, args.nelec, args.ms2)
                for _, src in rows]
    header = ["label"] + [f"E_{m}" for m in methods]
    if args.reference:
        header += [f"err_{m}" for m in methods]
    lines = [",".join(header)]
    for (label, _), e in zip(rows, energies):
        cells = [label] + [f"{e[m]:.10f}" for m in methods]
        if args.reference:
            cells += [f"{e[m] - e[args.reference]:.10f}" for m in methods]
        lines.append(",".join(cells))
    _emit(args, "\n".join(lines))
    first = methods[0]
    curve = [e[first] for e in energies]
    e_d = curve[-1] - min(curve)
    print(json.dumps({"method": first, "E_D": e_d,
                      "minimum": min(curve)}), file=sys.stderr)
    return EXIT_OK


def _add_input_flags(p):
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--fixture", choices=integrals_mod.FIXTURE_NAMES)
    group.add_argument("--integrals", metavar="FILE")
    p.add_argument("--nelec", type=int, default=None)


@functools.cache
def build_parser():
    """The ``ducc-vqe`` parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="ducc-vqe",
        description="Downfolded-Hamiltonian construction and simulated VQE")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("resources", help="UCCSD qubit/gate/depth accounting")
    p.add_argument("--orbitals", type=int, required=True)
    p.add_argument("--electrons", type=int, required=True)
    p.add_argument("--mp2-threshold", type=float, default=MP2_SCREEN_DEFAULT)
    p.add_argument("--integrals", metavar="FILE")
    p.add_argument("--format", choices=("table", "csv"), default="table")
    p.add_argument("--out")
    p.set_defaults(func=cmd_resources)

    p = sub.add_parser("eig", help="exact sector ground-state energy")
    _add_input_flags(p)
    p.add_argument("--ms2", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_eig)

    for name in ("mp2", "ccsd"):
        p = sub.add_parser(name, help=f"{name.upper()} amplitudes + energies")
        _add_input_flags(p)
        p.add_argument("--amplitudes-out", metavar="FILE")
        p.add_argument("--top", type=int, default=5)
        p.add_argument("--out")
        p.set_defaults(func=cmd_amplitudes)

    p = sub.add_parser("vqe", help="simulated VQE on the UCCSD ansatz")
    _add_input_flags(p)
    p.add_argument("--warm-start", choices=("mp2", "zero"), default="mp2")
    p.add_argument("--screen-threshold", type=float, default=None)
    p.add_argument("--max-evaluations", type=int,
                   default=vqe.MAX_EVALUATIONS)
    p.add_argument("--out")
    p.set_defaults(func=cmd_vqe)

    p = sub.add_parser("downfold", help="active-space effective Hamiltonian")
    _add_input_flags(p)
    p.add_argument("--active", required=True,
                   help="active spatial orbitals, e.g. '1,2'")
    p.add_argument("--amplitudes", metavar="FILE",
                   help="cluster amplitudes (default: solve CCSD)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_downfold)

    p = sub.add_parser("pes", help="potential-energy-surface sweep")
    p.add_argument("--manifest", required=True,
                   help="file of 'label fixture-or-file' lines")
    p.add_argument("--methods", default="eig")
    p.add_argument("--reference", default=None)
    p.add_argument("--nelec", type=int, default=None)
    p.add_argument("--ms2", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_pes)
    return parser


def _attach_negative_values(argv):
    """'--flag -1e-5' as '--flag=-1e-5': argparse reads a dash-led number
    with an exponent (or -inf, -nan) as an option missing from the parser."""
    out = []
    for token in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] \
                and NEGATIVE_NUMBER.fullmatch(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None):
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parser.parse_args(_attach_negative_values(argv))
    except SystemExit as exc:
        return exc.code if exc.code else EXIT_OK
    try:
        return args.func(args)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except (OSError, ValueError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
