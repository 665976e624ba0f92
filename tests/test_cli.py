import contextlib
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import random_integral_set
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import sector_matrix

import duccvqe
from duccvqe import amplitudes, cli
from duccvqe.amplitudes import ccsd_solve
from duccvqe.cli import (EXIT_CONVERGENCE, EXIT_DATA, EXIT_OK, EXIT_USAGE,
                         main)
from duccvqe.ducc import downfold
from duccvqe.fermion import (DENSE_SECTOR_LIMIT, ActiveSpace, DataError,
                             build_hamiltonian, sector_determinants,
                             sector_dimension)
from duccvqe.integrals import (FIXTURE_NAMES, builtin_fixture, load_fcidump,
                               load_spin_fcidump, read_fcidump, save_fcidump,
                               save_spin_fcidump)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_resources_table(capsys):
    code, out, _ = run(capsys, "resources", "--orbitals", "4",
                       "--electrons", "2")
    assert code == EXIT_OK
    assert "n_qubits     8" in out
    assert "excitations  15" in out


def test_resources_csv(capsys):
    code, out, _ = run(capsys, "resources", "--orbitals", "10",
                       "--electrons", "6", "--format", "csv")
    assert code == EXIT_OK
    header, row = out.strip().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["n_qubits"] == "20"
    assert cells["excitations"] == "609"


def test_resources_zero_virtuals(capsys):
    code, out, _ = run(capsys, "resources", "--orbitals", "3",
                       "--electrons", "6")
    assert code == EXIT_OK
    assert "excitations  0" in out


def test_resources_mp2_screening(capsys, tmp_path):
    from duccvqe.integrals import builtin_fixture, save_fcidump
    path = tmp_path / "h2.fcidump"
    save_fcidump(builtin_fixture("h2_ducc_1.4008"), path, nelec=2)
    code, out, _ = run(capsys, "resources", "--orbitals", "4",
                       "--electrons", "2", "--integrals", str(path),
                       "--mp2-threshold", "1e-5")
    assert code == EXIT_OK
    screened = int(out.split("screened_excitations")[1].split()[0])
    assert 0 < screened <= 15


@pytest.mark.parametrize("orbitals", ["3", "6"])
def test_resources_integrals_must_match_orbitals(capsys, tmp_path, orbitals):
    path = tmp_path / "h2.fcidump"
    save_fcidump(builtin_fixture("h2_ducc_1.4008"), path, nelec=2)
    code, out, err = run(capsys, "resources", "--orbitals", orbitals,
                         "--electrons", "2", "--integrals", str(path))
    assert code == EXIT_DATA
    assert "has 4 orbitals" in err and f"--orbitals is {orbitals}" in err
    assert out == ""


@pytest.mark.parametrize("orbitals,electrons,flag", [
    ("0", "0", "--orbitals"), ("-1", "2", "--orbitals"),
    ("3", "-2", "--electrons"), ("3", "-1", "--electrons")])
def test_resources_rejects_bad_counts(capsys, orbitals, electrons, flag):
    code, out, err = run(capsys, "resources", "--orbitals", orbitals,
                         "--electrons", electrons)
    assert code == EXIT_DATA
    assert flag in err and out == ""


@pytest.mark.parametrize("threshold", ["nan", "inf", "-1e-5"])
def test_bad_screening_threshold_rejected(capsys, tmp_path, threshold):
    path = tmp_path / "h2.fcidump"
    save_fcidump(builtin_fixture("h2_ducc_0.8"), path, nelec=2)
    for argv in (["vqe", "--fixture", "h2_ducc_0.8",
                  f"--screen-threshold={threshold}"],
                 ["resources", "--orbitals", "4", "--electrons", "2",
                  "--integrals", str(path), f"--mp2-threshold={threshold}"]):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_DATA
        assert "screening threshold" in err and out == ""


@pytest.mark.parametrize("threshold", ["-1e-5", "nan", "inf"])
def test_screening_threshold_checked_without_integrals(capsys, threshold):
    code, out, err = run(capsys, "resources", "--orbitals", "4",
                         "--electrons", "2", "--mp2-threshold", threshold)
    assert code == EXIT_DATA
    assert "screening threshold" in err and out == ""


@pytest.mark.parametrize("threshold", ["-1e-5", "-1.5E+2", "-inf"])
def test_spaced_negative_threshold_reaches_the_check(capsys, tmp_path,
                                                     threshold):
    # argparse alone reads '--flag -1e-5' as a flag missing its value
    path = tmp_path / "h2.fcidump"
    save_fcidump(builtin_fixture("h2_ducc_0.8"), path, nelec=2)
    for argv in (["vqe", "--fixture", "h2_ducc_0.8",
                  "--screen-threshold", threshold],
                 ["resources", "--orbitals", "4", "--electrons", "2",
                  "--integrals", str(path), "--mp2-threshold", threshold]):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_DATA
        assert "screening threshold" in err and out == ""


def test_eig_fixture(capsys):
    code, out, _ = run(capsys, "eig", "--fixture", "h2_ducc_10.0",
                       "--nelec", "2", "--ms2", "0")
    assert code == EXIT_OK
    blob = json.loads(out)
    assert blob["energy"] == pytest.approx(-1.1008953360, abs=1e-8)


def _string_path_energy(spin, nelec, ms2):
    """Lowest eigenvalue of the operator-string sector matrix."""
    dets = sector_determinants(spin.n_spin_orbitals, nelec, ms2)
    h = sector_matrix(build_hamiltonian(spin), dets).toarray()
    return np.linalg.eigvalsh((h + h.T) / 2)[0]


@pytest.mark.parametrize("nelec,ms2", [(2, 0), (4, 0), (6, 0), (3, 1),
                                       (3, -1), (5, 1), (5, -1)])
def test_eig_matches_string_path(capsys, tmp_path, nelec, ms2):
    path = tmp_path / "system.fcidump"
    save_fcidump(random_integral_set(np.random.default_rng(nelec), 4), path,
                 nelec=nelec)
    code, out, _ = run(capsys, "eig", "--integrals", str(path),
                       "--ms2", str(ms2))
    assert code == EXIT_OK
    want = _string_path_energy(load_fcidump(path).to_spin_orbital(), nelec,
                               ms2)
    assert json.loads(out)["energy"] == pytest.approx(want, abs=1e-12)


def _fresh_interpreter(*args):
    """stdout of ``python args`` in a new process importing this package."""
    env = dict(os.environ, PYTHONPATH=str(Path(duccvqe.__file__).parents[1]))
    return subprocess.run([sys.executable, *args], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_eig_repeats_across_processes(tmp_path):
    # above DENSE_SECTOR_LIMIT eigsh runs from a fixed start vector, so a
    # new process gives the same bits
    path = tmp_path / "system.fcidump"
    save_fcidump(random_integral_set(np.random.default_rng([7, 6, 0]), 7),
                 path, nelec=6)
    assert sector_dimension(14, 6, 0) > DENSE_SECTOR_LIMIT
    first, second = (_fresh_interpreter("-m", "duccvqe.cli", "eig",
                                        "--integrals", str(path))
                     for _ in range(2))
    assert first == second
    assert json.loads(first)["nelec"] == 6


def test_eig_leaves_scipy_optimize_unloaded():
    # only vqe.minimize imports scipy.optimize
    out = _fresh_interpreter(
        "-c", "import sys; from duccvqe.cli import main; "
        "main(sys.argv[1:]); print('scipy.optimize' in sys.modules)",
        "eig", "--fixture", "h2_ducc_0.8")
    assert out.splitlines()[-1] == "False"


def test_commands_without_a_solver_load_no_scipy(tmp_path):
    # below DENSE_SECTOR_LIMIT no sector forms a CSR matrix, so only the
    # eigensolvers and COBYLA import SciPy, where they run
    script = ("import sys, duccvqe; from duccvqe.cli import main; "
              "code = main(sys.argv[1:]) if sys.argv[1:] else 0; "
              "print(code, sorted(m for m in sys.modules "
              "if m.split('.')[0] == 'scipy'))")
    path = tmp_path / "h2.fcidump"
    save_fcidump(builtin_fixture("h2_ducc_1.4008"), path, nelec=2)
    for argv in ([], ["downfold", "--integrals", str(path), "--active", "1,2",
                      "--out", str(tmp_path / "dressed.fcidump")],
                 ["ccsd", "--integrals", str(path)],
                 ["mp2", "--fixture", "h2_ducc_0.8", "--nelec", "2"],
                 ["resources", "--orbitals", "4", "--electrons", "2",
                  "--integrals", str(path)]):
        out = _fresh_interpreter("-c", script, *argv)
        assert out.splitlines()[-1] == "0 []", argv
    out = _fresh_interpreter("-c", script, "eig", "--integrals", str(path))
    assert "'scipy.linalg'" in out.splitlines()[-1]


def test_eig_of_spin_resolved_file_with_spin_flips(capsys, tmp_path):
    spin = random_integral_set(np.random.default_rng(7), 3).to_spin_orbital()
    for p, q, value in ((0, 1, 0.05), (2, 5, -0.04), (3, 4, 0.03)):
        spin.h1[p, q] = spin.h1[q, p] = value     # alpha-beta one-body
    for p, q, r, s, value in ((0, 1, 3, 2, 0.02), (0, 3, 5, 2, -0.01)):
        for index in ((p, q, r, s), (q, p, s, r), (r, s, p, q),
                      (s, r, q, p)):
            spin.h2[index] = value
    path = tmp_path / "flips.fcidump"
    save_spin_fcidump(spin, path, nelec=3, ms2=1)
    loaded = read_fcidump(path)[0]
    for nelec, ms2 in ((3, 1), (3, -1), (2, 0), (4, 0), (4, 2)):
        code, out, _ = run(capsys, "eig", "--integrals", str(path),
                           "--nelec", str(nelec), "--ms2", str(ms2))
        assert code == EXIT_OK
        assert json.loads(out)["energy"] == pytest.approx(
            _string_path_energy(loaded, nelec, ms2), abs=1e-12)


def test_usage_errors(capsys):
    code, _, _ = run(capsys, "eig", "--fixture", "not_a_fixture")
    assert code == EXIT_USAGE
    code, _, _ = run(capsys, "resources", "--orbitals", "4")
    assert code == EXIT_USAGE
    # COBYLA is deterministic and the sweep is serial: no such flags
    code, _, _ = run(capsys, "vqe", "--fixture", "h2_ducc_0.8",
                     "--seed", "1")
    assert code == EXIT_USAGE
    code, _, _ = run(capsys, "pes", "--manifest", "m", "--jobs", "2")
    assert code == EXIT_USAGE


def test_data_errors(capsys, tmp_path):
    code, _, err = run(capsys, "eig", "--integrals", "/nonexistent/file")
    assert code == EXIT_DATA
    assert "error:" in err
    bad = tmp_path / "bad.fcidump"
    bad.write_text("&FCI NORB=2 NELEC=2 MS2=0\nnot numbers here x\n")
    code, _, err = run(capsys, "eig", "--integrals", str(bad))
    assert code == EXIT_DATA


def test_file_without_a_header_is_a_data_error(capsys, tmp_path):
    path = tmp_path / "empty.fcidump"
    path.write_text("# no header, no data\n\n")
    code, out, err = run(capsys, "eig", "--integrals", str(path))
    assert code == EXIT_DATA and out == ""
    assert err == f"error: {path}: missing &FCI header\n"


# raised by code the CLI never reaches, or caught inside the package;
# ConvergenceError is exit 4
NOT_DATA_ERRORS = {"ConvergenceError", "SimulatorError", "_BudgetSpent"}


def test_every_package_error_is_a_data_error():
    # an error class outside DataError would leave ducc-vqe as a traceback
    found = set()
    for info in pkgutil.iter_modules(duccvqe.__path__, "duccvqe."):
        module = importlib.import_module(info.name)
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if (issubclass(cls, BaseException) and cls is not DataError
                    and cls.__module__ == module.__name__):
                found.add(name)
                assert issubclass(cls, DataError) \
                    == (name not in NOT_DATA_ERRORS), name
    assert NOT_DATA_ERRORS < found


def test_parser_built_once_and_ccsd_looked_up_per_command(capsys,
                                                          monkeypatch):
    cli.build_parser.cache_clear()
    assert run(capsys, "eig", "--fixture", "h2_ducc_0.8")[0] == EXIT_OK
    assert run(capsys, "mp2", "--fixture", "h2_ducc_0.8")[0] == EXIT_OK
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    counts = []
    monkeypatch.setattr(cli, "ccsd_solve",
                        lambda spin, nelec: counts.append(nelec)
                        or ccsd_solve(spin, nelec))
    assert run(capsys, "ccsd", "--fixture", "h2_ducc_0.8")[0] == EXIT_OK
    assert counts == [2]


def test_ccsd_non_convergence_exits_4(capsys, monkeypatch):
    monkeypatch.setattr(amplitudes, "CCSD_MAX_ITER", 1)
    code, out, err = run(capsys, "ccsd", "--fixture", "h2_ducc_0.8")
    assert code == EXIT_CONVERGENCE and out == ""
    assert err.startswith("error: CCSD not converged after 1 iterations")


@pytest.mark.parametrize("command", ["mp2", "ccsd"])
@pytest.mark.parametrize("source", ["fixture", "missing"])
def test_bad_top_refused_before_loading_or_solving(capsys, tmp_path, command,
                                                   source):
    # a missing file would be reported if it were read first
    amps = tmp_path / "t.amps"
    where = ["--fixture", "h2_ducc_0.8"] if source == "fixture" \
        else ["--integrals", str(tmp_path / "missing.fcidump")]
    code, out, err = run(capsys, command, *where, "--top", "0",
                         "--amplitudes-out", str(amps))
    assert (code, out, err) == (EXIT_DATA, "", "error: k must be >= 1\n")
    assert not amps.exists()


# 2 orbitals, 2 electrons: the integral lines, and the message of each
# command. "exchange", (12|12) = 1e308, overflows the MP2 energy and the
# CCSD residuals; vqe reads only the MP2 amplitudes, which stay finite.
# "all", 1e308 on all four two-body lines, overflows the orbital energies;
# "scalar", a core energy of 1e308, the total energy.
SECTOR = "sector matrix has an inf or NaN entry"
OVERFLOWING = {
    "exchange": (["1 1 0 0 -1.0", "2 2 0 0 1.0", "1 2 1 2 1e308"],
                 {"mp2": "the MP2 energy is inf or NaN",
                  "ccsd": "a CCSD residual is inf or NaN",
                  "downfold": "a CCSD residual is inf or NaN",
                  "vqe": SECTOR}),
    "all": (["1 1 0 0 -1.0", "2 2 0 0 1.0"]
            + [f"{key} 1e308" for key in ("1 1 1 1", "1 2 1 2", "1 1 2 2",
                                          "2 2 2 2")],
            dict.fromkeys(["mp2", "ccsd", "downfold", "vqe"],
                          "an orbital energy is inf or NaN")),
    "scalar": (["1 1 0 0 5e307", "2 2 0 0 1.0", "1 2 1 2 0.1",
                "0 0 0 0 1e308"],
               {"mp2": "the total energy is inf or NaN",
                "ccsd": "the total energy is inf or NaN",
                "downfold": "downfold overflowed: a dressed integral is inf "
                            "or NaN",
                "vqe": SECTOR}),
}


@pytest.mark.parametrize("system", list(OVERFLOWING))
@pytest.mark.parametrize("command", ["mp2", "ccsd", "downfold", "vqe"])
def test_overflowing_integrals_exit_3_without_warnings(capsys, tmp_path,
                                                       command, system):
    lines, messages = OVERFLOWING[system]
    path, written = tmp_path / "big.fcidump", tmp_path / "written"
    path.write_text("\n".join(["&FCI NORB=2 NELEC=2 MS2=0", *lines]) + "\n")
    extra = {"mp2": ["--amplitudes-out", str(written)],
             "ccsd": ["--amplitudes-out", str(written)],
             "downfold": ["--active", "1", "--out", str(written)],
             "vqe": []}[command]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, command, "--integrals", str(path),
                             *extra)
    want = f"error: {messages[command]}\n"
    assert (code, out, err) == (EXIT_DATA, "", want)
    assert not written.exists()


def test_mp2_and_ccsd_pipeline(capsys, tmp_path):
    amp_path = tmp_path / "t.amps"
    code, out, _ = run(capsys, "ccsd", "--fixture", "h2_ducc_10.0",
                       "--amplitudes-out", str(amp_path), "--top", "3")
    assert code == EXIT_OK
    blob = json.loads(out)
    assert blob["e_total"] == pytest.approx(-1.1008953360, abs=1e-8)
    assert blob["top_amplitudes"][0][0] == "1a 1b -> 2a 2b"
    assert amp_path.exists()

    code, out, _ = run(capsys, "mp2", "--fixture", "h2_ducc_10.0")
    assert code == EXIT_OK
    assert json.loads(out)["e_corr"] == pytest.approx(-0.2465242012,
                                                      abs=1e-8)


def test_vqe_matches_eig(capsys):
    code, out, _ = run(capsys, "vqe", "--fixture", "h2_ducc_1.4008")
    assert code == EXIT_OK
    blob = json.loads(out)
    assert blob["converged"]
    assert blob["energy"] == pytest.approx(-1.8811068840, abs=1e-4)


def test_vqe_convergence_exit_code(capsys):
    # an evaluation budget too small to satisfy the parameter tolerance
    code, out, _ = run(capsys, "vqe", "--fixture", "h2_ducc_0.8",
                       "--max-evaluations", "5")
    assert code == EXIT_CONVERGENCE
    assert json.loads(out)["converged"] is False


def test_vqe_evaluation_budget_honoured(capsys):
    # 5 is below COBYLA's smallest budget (15 parameters + 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run(capsys, "vqe", "--fixture", "h2_ducc_0.8",
                           "--max-evaluations", "5")
    assert code == EXIT_CONVERGENCE
    blob = json.loads(out)
    assert blob["n_evaluations"] == 5
    assert blob["energy"] == min(e for _, e in blob["trace"])
    code, _, err = run(capsys, "vqe", "--fixture", "h2_ducc_0.8",
                       "--max-evaluations", "0")
    assert code == EXIT_DATA
    assert "budget" in err


def test_vqe_without_parameters_is_one_evaluation(capsys, tmp_path):
    # 1 orbital, 2 electrons: no excitations, the HF state is exact
    path = tmp_path / "one.fcidump"
    path.write_text("&FCI NORB=1 NELEC=2 MS2=0\n1 1 1 1 0.6\n"
                    "1 1 0 0 -1.2\n0 0 0 0 0.3\n")
    code, out, _ = run(capsys, "vqe", "--integrals", str(path))
    assert code == EXIT_OK
    blob = json.loads(out)
    assert blob["params"] == [] and blob["n_evaluations"] == 1
    code, out, _ = run(capsys, "eig", "--integrals", str(path))
    assert code == EXIT_OK and blob["energy"] == json.loads(out)["energy"]


def test_downfold_identity_and_reduced(capsys, tmp_path):
    out_path = tmp_path / "full.fcidump"
    code, _, _ = run(capsys, "downfold", "--fixture", "h2_ducc_1.4008",
                     "--nelec", "2", "--active", "1,2,3,4",
                     "--out", str(out_path))
    assert code == EXIT_OK
    code, out, _ = run(capsys, "eig", "--integrals", str(out_path),
                       "--nelec", "2")
    assert json.loads(out)["energy"] == pytest.approx(-1.8811068840,
                                                      abs=1e-9)

    red_path = tmp_path / "red.fcidump"
    code, _, _ = run(capsys, "downfold", "--fixture", "h2_ducc_1.4008",
                     "--nelec", "2", "--active", "1,2",
                     "--out", str(red_path))
    assert code == EXIT_OK
    code, out, _ = run(capsys, "eig", "--integrals", str(red_path),
                       "--nelec", "2")
    e_red = json.loads(out)["energy"]
    assert abs(e_red - -1.8811068840) < 0.02  # active-space truncation error


def test_header_counts_and_file_sources(capsys, tmp_path):
    dressed = tmp_path / "red.fcidump"
    code, _, _ = run(capsys, "downfold", "--fixture", "h2_ducc_1.4008",
                     "--active", "1,2", "--out", str(dressed))
    assert code == EXIT_OK
    # NELEC and MS2 come from the spin-resolved header when not given
    code, out, _ = run(capsys, "eig", "--integrals", str(dressed))
    assert code == EXIT_OK
    blob = json.loads(out)
    assert (blob["nelec"], blob["ms2"]) == (2, 0)
    code, out, _ = run(capsys, "eig", "--integrals", str(dressed),
                       "--nelec", "2")
    assert json.loads(out)["energy"] == blob["energy"]

    manifest = tmp_path / "files.manifest"
    manifest.write_text(f"dressed {dressed}\nfull h2_ducc_1.4008\n")
    code, out, _ = run(capsys, "pes", "--manifest", str(manifest))
    assert code == EXIT_OK
    rows = dict(line.split(",") for line in out.strip().splitlines()[1:])
    assert float(rows["dressed"]) == pytest.approx(blob["energy"], abs=1e-9)


@pytest.mark.parametrize("command", [["mp2"], ["ccsd"], ["vqe"],
                                     ["downfold", "--active", "1,2"]])
def test_reference_commands_take_ms2_from_the_reference(capsys, tmp_path,
                                                        command):
    out = tmp_path / "out"
    argv = [*command, "--out", str(out)]
    code, _, _ = run(capsys, *argv, "--fixture", "h2_ducc_0.8", "--ms2", "2")
    assert code == EXIT_USAGE
    # hf_determinant(2) has MS2 = 0; a header that says 2 is a data error
    path = tmp_path / "triplet.fcidump"
    save_fcidump(builtin_fixture("h2_ducc_0.8"), path, nelec=2, ms2=2)
    code, _, err = run(capsys, *argv, "--integrals", str(path))
    assert code == EXIT_DATA
    assert "MS2=2" in err
    assert not out.exists()


def test_resources_screening_takes_ms2_from_the_reference(capsys, tmp_path):
    path = tmp_path / "triplet.fcidump"
    save_fcidump(builtin_fixture("h2_ducc_0.8"), path, nelec=2, ms2=2)
    code, _, err = run(capsys, "resources", "--orbitals", "4",
                       "--electrons", "2", "--integrals", str(path))
    assert code == EXIT_DATA
    assert "MS2=2" in err


def test_pes_ms2_reaches_eig_only(capsys, tmp_path):
    manifest = tmp_path / "m.manifest"
    manifest.write_text("a h2_ducc_0.8\n")
    code, out, _ = run(capsys, "pes", "--manifest", str(manifest),
                       "--methods", "eig", "--ms2", "2")
    assert code == EXIT_OK
    code, eig, _ = run(capsys, "eig", "--fixture", "h2_ducc_0.8",
                       "--ms2", "2")
    assert float(out.splitlines()[1].split(",")[1]) == pytest.approx(
        json.loads(eig)["energy"], abs=1e-9)
    code, _, err = run(capsys, "pes", "--manifest", str(manifest),
                       "--methods", "eig,vqe", "--ms2", "2")
    assert code == EXIT_DATA
    assert "MS2=2" in err


def test_vqe_and_pes_vqe_reject_an_open_shell_reference(capsys, tmp_path):
    path = tmp_path / "doublet.fcidump"
    save_fcidump(builtin_fixture("h2_ducc_0.8"), path, nelec=3, ms2=1)
    manifest = tmp_path / "m.manifest"
    manifest.write_text(f"a {path}\n")
    for argv in (["vqe", "--integrals", str(path)],
                 ["pes", "--manifest", str(manifest), "--methods", "vqe"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_DATA, "")
        assert "the UCCSD reference here is closed-shell" in err


def test_eig_ms2_beyond_the_electron_count_is_an_empty_sector(capsys):
    code, out, err = run(capsys, "eig", "--fixture", "h2_ducc_0.8",
                         "--ms2", "4")
    assert (code, out) == (EXIT_DATA, "")
    assert "empty sector: N=2, MS2=4, modes=8" in err


@pytest.mark.parametrize("source", ["fixture", "seeded_5_orbitals"])
def test_library_and_cli_give_the_same_dressed_hamiltonian(capsys, tmp_path,
                                                           rng, source):
    if source == "fixture":
        ints = builtin_fixture("h2_ducc_1.4008")
        argv = ["--fixture", "h2_ducc_1.4008"]
    else:
        path = tmp_path / "rand5.fcidump"
        save_fcidump(random_integral_set(rng, 5, noise=0.15), path, nelec=2)
        ints = load_fcidump(path)
        argv = ["--integrals", str(path)]
    dressed = tmp_path / "dressed.fcidump"
    code, _, _ = run(capsys, "downfold", *argv, "--active", "1,2",
                     "--out", str(dressed))
    assert code == EXIT_OK
    spin = ints.to_spin_orbital()
    t, _ = ccsd_solve(spin, 2)
    dh = downfold(spin, ActiveSpace.build(ints.n_orbitals, (1,), (2,)), t)
    back = load_spin_fcidump(dressed)
    np.testing.assert_allclose(back.h1, dh.h1, rtol=0, atol=1e-14)
    np.testing.assert_allclose(back.h2, dh.h2, rtol=0, atol=1e-14)
    assert back.scalar_shift == pytest.approx(dh.scalar_shift, abs=1e-14)


def test_downfold_requires_occupied_in_active(capsys):
    code, _, err = run(capsys, "downfold", "--fixture", "h2_ducc_0.8",
                       "--nelec", "2", "--active", "2,3", "--out", "/tmp/x")
    assert code == EXIT_DATA
    assert "occupied" in err


def test_pes_manifest(capsys, tmp_path):
    manifest = tmp_path / "pes.manifest"
    manifest.write_text("# four published geometries\n"
                        "0.8 h2_ducc_0.8\n1.4008 h2_ducc_1.4008\n"
                        "4.0 h2_ducc_4.0\n10.0 h2_ducc_10.0\n")
    out_csv = tmp_path / "pes.csv"
    code, _, err = run(capsys, "pes", "--manifest", str(manifest),
                       "--methods", "eig", "--out", str(out_csv))
    assert code == EXIT_OK
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "label,E_eig"
    assert len(lines) == 5
    energies = {ln.split(",")[0]: float(ln.split(",")[1])
                for ln in lines[1:]}
    # bound molecule: stretched geometry sits above the minimum
    assert energies["10.0"] > energies["1.4008"]
    summary = json.loads(err)
    assert summary["E_D"] == pytest.approx(
        energies["10.0"] - min(energies.values()), abs=1e-9)


def test_pes_vqe_column_matches_eig(capsys, tmp_path):
    manifest = tmp_path / "m.manifest"
    manifest.write_text("a h2_ducc_0.8\nb h2_ducc_1.4008\n")
    code, out, _ = run(capsys, "pes", "--manifest", str(manifest),
                       "--methods", "eig,vqe", "--reference", "eig")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "label,E_eig,E_vqe,err_eig,err_vqe"
    for line in lines[1:]:
        assert abs(float(line.split(",")[-1])) < 1e-9


def test_pes_single_point(capsys, tmp_path):
    manifest = tmp_path / "one.manifest"
    manifest.write_text("1.4008 h2_ducc_1.4008\n")
    code, _, err = run(capsys, "pes", "--manifest", str(manifest))
    assert code == EXIT_OK
    assert json.loads(err)["E_D"] == pytest.approx(0.0, abs=1e-12)


def test_pes_reference_column(capsys, tmp_path):
    manifest = tmp_path / "m.manifest"
    manifest.write_text("a h2_ducc_0.8\nb h2_ducc_4.0\n")
    code, out, _ = run(capsys, "pes", "--manifest", str(manifest),
                       "--methods", "eig", "--reference", "eig")
    assert code == EXIT_OK
    for line in out.strip().splitlines()[1:]:
        assert float(line.split(",")[-1]) == 0.0


@pytest.mark.parametrize("reference", ["vqe", "bogus"])
def test_pes_reference_outside_methods_rejected(capsys, tmp_path, reference):
    manifest = tmp_path / "m.manifest"
    # a missing point file: the --reference check must come first
    manifest.write_text("a missing.fcidump\n")
    code, out, err = run(capsys, "pes", "--manifest", str(manifest),
                         "--methods", "eig", "--reference", reference)
    assert code == EXIT_DATA
    assert f"--reference {reference!r}" in err and out == ""


def test_non_finite_amplitude_line_is_a_data_error(capsys, tmp_path):
    amps, out = tmp_path / "bad.amps", tmp_path / "dressed.fcidump"
    amps.write_text("# singles\nT1 0 2 nan\n")
    code, stdout, err = run(capsys, "downfold", "--fixture", "h2_ducc_0.8",
                            "--active", "1,2", "--amplitudes", str(amps),
                            "--out", str(out))
    assert code == EXIT_DATA and stdout == "" and not out.exists()
    assert err == f"error: {amps}:2: non-finite amplitude: 'T1 0 2 nan'\n"


def test_pes_bad_manifest(capsys, tmp_path):
    manifest = tmp_path / "bad.manifest"
    manifest.write_text("only-one-field\n")
    code, _, _ = run(capsys, "pes", "--manifest", str(manifest))
    assert code == EXIT_DATA
    manifest.write_text("")
    code, _, _ = run(capsys, "pes", "--manifest", str(manifest))
    assert code == EXIT_DATA


@pytest.mark.parametrize("command", [["eig"], ["vqe", "--warm-start", "zero"]])
def test_sector_above_cap_is_a_data_error(capsys, tmp_path, command):
    # 10 orbitals, 8 electrons: 210^2 = 44,100 determinants
    path = tmp_path / "big.fcidump"
    path.write_text("&FCI NORB=10 NELEC=8 MS2=0\n"
                    + "".join(f"{p} {p} 0 0 {p}.0\n" for p in range(1, 11)))
    code, _, err = run(capsys, *command, "--integrals", str(path))
    assert code == EXIT_DATA
    assert "44100 exceeds cap" in err


_WORD = st.text("ab.,#_-0123456789 h2ducc", max_size=8)
_SOURCE = st.sampled_from([*FIXTURE_NAMES, "@file", "h2_ducc_9.9",
                           "missing.fcidump", "@manifest", "@dir"])
_ROW = st.tuples(st.text("ab.-_0123456789", min_size=1, max_size=6),
                 _SOURCE).map(" ".join)
_MANIFEST_LINE = st.one_of(
    _ROW, _ROW.map(lambda row: row + " # note"), st.just("# comment"),
    st.just(""), st.lists(st.one_of(_SOURCE, _WORD), max_size=4).map(" ".join))


@settings(max_examples=200, deadline=None)
@given(lines=st.lists(_MANIFEST_LINE, max_size=5))
@example(lines=["a,b h2_ducc_0.8"])   # a label that would split its CSV row
@example(lines=["a @dir", "b @manifest"])
def test_pes_manifest_fuzz(tmp_path_factory, lines):
    workdir = tmp_path_factory.mktemp("pes")
    manifest, out = workdir / "fuzz.manifest", workdir / "pes.csv"
    save_fcidump(builtin_fixture("h2_ducc_0.8"), workdir / "h2.fcidump",
                 nelec=2)
    places = {"@file": "h2.fcidump", "@manifest": manifest.name,
              "@dir": str(workdir)}
    manifest.write_text("".join(
        " ".join(places.get(tok, tok) for tok in line.split(" ")) + "\n"
        for line in lines))
    with contextlib.chdir(workdir):
        code = main(["pes", "--manifest", str(manifest), "--methods", "eig",
                     "--out", str(out)])
    assert code in (EXIT_OK, EXIT_DATA)
    if code == EXIT_OK:
        rows = [line.split(",") for line in out.read_text().splitlines()]
        assert rows[0] == ["label", "E_eig"]
        assert all(len(row) == 2 and np.isfinite(float(row[1]))
                   for row in rows[1:])
