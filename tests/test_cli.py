import json
import warnings

import numpy as np
import pytest
from conftest import random_integral_set

from duccvqe.amplitudes import ccsd_solve
from duccvqe.cli import (EXIT_CONVERGENCE, EXIT_DATA, EXIT_OK, EXIT_USAGE,
                         main)
from duccvqe.ducc import downfold
from duccvqe.fermion import ActiveSpace, hf_determinant
from duccvqe.integrals import (builtin_fixture, load_fcidump,
                               load_spin_fcidump, save_fcidump)


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


def test_eig_fixture(capsys):
    code, out, _ = run(capsys, "eig", "--fixture", "h2_ducc_10.0",
                       "--nelec", "2", "--ms2", "0")
    assert code == EXIT_OK
    blob = json.loads(out)
    assert blob["energy"] == pytest.approx(-1.1008953360, abs=1e-8)


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
    t, _ = ccsd_solve(spin, hf_determinant(2))
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


def test_pes_bad_manifest(capsys, tmp_path):
    manifest = tmp_path / "bad.manifest"
    manifest.write_text("only-one-field\n")
    code, _, _ = run(capsys, "pes", "--manifest", str(manifest))
    assert code == EXIT_DATA
    manifest.write_text("")
    code, _, _ = run(capsys, "pes", "--manifest", str(manifest))
    assert code == EXIT_DATA
