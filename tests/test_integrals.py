import os

import numpy as np
import pytest

from duccvqe import integrals
from duccvqe.integrals import (IntegralError, IntegralSet, builtin_fixture,
                               fixture_path, load_fcidump, load_spin_fcidump,
                               save_fcidump, save_spin_fcidump)

# spot values from the published dressed-integral tables bundled as fixtures
FIXTURE_SPOT_VALUES = [
    ("h2_ducc_1.4008", "h1", (2, 2), -0.4695131026),
    ("h2_ducc_10.0", "h2", (3, 4, 3, 4), 0.1123997215),
    ("h2_ducc_0.8", "h2", (4, 4, 4, 4), 0.3740766949),
]


def test_symmetry_group_storage():
    ints = IntegralSet(n_orbitals=3)
    ints.set_h2(1, 2, 3, 1, 0.25)
    # the four-element orbit all read back the same value
    assert ints.get_h2(2, 1, 1, 3) == 0.25
    assert ints.get_h2(3, 1, 1, 2) == 0.25
    assert ints.get_h2(1, 3, 2, 1) == 0.25
    # the full 8-fold group is NOT assumed for dressed integrals
    assert ints.get_h2(3, 1, 2, 1) == 0.0


def test_conflicting_duplicate_rejected():
    ints = IntegralSet(n_orbitals=2)
    ints.set_h2(1, 2, 2, 1, 0.5)
    ints.set_h2(2, 1, 1, 2, 0.5)  # same orbit, consistent: fine
    with pytest.raises(IntegralError, match="duplicate"):
        ints.set_h2(2, 1, 1, 2, 0.75)


def test_index_range_checked():
    with pytest.raises(IntegralError, match="outside"):
        IntegralSet(n_orbitals=2).set_h1(1, 3, 0.1)


@pytest.mark.parametrize("line", ["-1 1 0 0 -1.0", "1 0 0 0 0.3",
                                  "0 1 0 0 0.3", "1 1 0 2 0.2",
                                  "0 0 1 1 0.2", "1 1 1 -2 0.2",
                                  "5 1 0 0 0.1"])
def test_spin_index_range_checked(tmp_path, line):
    from duccvqe.cli import EXIT_DATA, main
    path = tmp_path / "bad.fcidump"
    path.write_text("&FCI NORB=4 NELEC=2 MS2=0 UHF=.TRUE.\n"
                    f"1 1 0 0 -0.5\n{line}\n")
    with pytest.raises(IntegralError, match="outside"):
        load_spin_fcidump(path)
    assert main(["eig", "--integrals", str(path)]) == EXIT_DATA


@pytest.mark.parametrize("lines", [
    "1 1 0 0 -1.0\n1 1 0 0 -2.0", "1 2 0 0 0.1\n2 1 0 0 0.2",
    "1 2 3 4 0.5\n2 1 4 3 0.7", "1 2 3 4 0.5\n3 4 1 2 0.6"],
    ids=["h1_same", "h1_transposed", "h2_spin_swap", "h2_pair_swap"])
def test_spin_conflicting_duplicate_rejected(tmp_path, lines):
    from duccvqe.cli import EXIT_DATA, main
    path = tmp_path / "dup.fcidump"
    path.write_text(f"&FCI NORB=4 NELEC=2 MS2=0 UHF=.TRUE.\n{lines}\n")
    with pytest.raises(IntegralError, match="duplicate"):
        load_spin_fcidump(path)
    assert main(["eig", "--integrals", str(path)]) == EXIT_DATA
    # the same entry repeated with the same value is accepted
    path.write_text("&FCI NORB=4 NELEC=2 MS2=0 UHF=.TRUE.\n"
                    f"{lines.splitlines()[0]}\n{lines.splitlines()[0]}\n")
    assert load_spin_fcidump(path).n_spin_orbitals == 4


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("layout", ["spatial", "spin"])
def test_non_finite_values_rejected(tmp_path, layout, value):
    from duccvqe.cli import EXIT_DATA, main
    good = tmp_path / "good.fcidump"
    if layout == "spatial":
        save_fcidump(builtin_fixture("h2_ducc_1.4008"), good, nelec=2)
    else:
        save_spin_fcidump(builtin_fixture("h2_ducc_1.4008").to_spin_orbital(),
                          good, nelec=2)
    text = good.read_text()
    head, sep, tail = text.partition("\n1 1 0 0 ")
    path = tmp_path / "bad.fcidump"
    path.write_text(head + sep + value + "\n" + tail.split("\n", 1)[1])
    lineno = (head + sep).count("\n") + 1
    load = load_fcidump if layout == "spatial" else load_spin_fcidump
    with pytest.raises(IntegralError, match=f"{path}:{lineno}: non-finite"):
        load(path)
    for command in (["eig"], ["ccsd"], ["downfold", "--active", "1,2",
                                        "--out", str(tmp_path / "d")]):
        assert main([*command, "--integrals", str(path)]) == EXIT_DATA
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("layout", ["spatial", "spin"])
def test_range_errors_name_the_file(tmp_path, layout):
    path = tmp_path / "bad.fcidump"
    uhf = " UHF=.TRUE." if layout == "spin" else ""
    path.write_text(f"&FCI NORB=2 NELEC=2 MS2=0{uhf}\n1 1 0 0 -1.0\n"
                    "1 3 0 0 0.1\n")
    load = load_fcidump if layout == "spatial" else load_spin_fcidump
    with pytest.raises(IntegralError, match=f"{path}:3: .*outside 1..2"):
        load(path)


def test_spatial_file_rejected_by_spin_loader():
    with pytest.raises(IntegralError, match="spatial"):
        load_spin_fcidump(fixture_path("h2_ducc_0.8"))


@pytest.mark.parametrize("source", ["fixture", "spatial", "spin"])
def test_cli_parses_each_input_once(tmp_path, monkeypatch, source):
    from duccvqe.cli import EXIT_OK, main
    path = tmp_path / "h2.fcidump"
    ints = builtin_fixture("h2_ducc_0.8")
    if source == "spatial":
        save_fcidump(ints, path, nelec=2)
    elif source == "spin":
        save_spin_fcidump(ints.to_spin_orbital(), path, nelec=2)
    calls = []
    read = integrals._read_lines
    monkeypatch.setattr(integrals, "_read_lines",
                        lambda path: calls.append(path) or read(path))
    argv = ["eig", "--fixture", "h2_ducc_0.8", "--nelec", "2"] \
        if source == "fixture" else ["eig", "--integrals", str(path)]
    assert main(argv) == EXIT_OK
    assert len(calls) == 1


def test_spatial_round_trip(tmp_path, rng):
    from conftest import random_integral_set
    ints = random_integral_set(rng, 3)
    ints.scalar_shift = 0.7
    path = tmp_path / "r.fcidump"
    save_fcidump(ints, path, nelec=2)
    back = load_fcidump(path)
    assert back.n_orbitals == 3
    assert back.scalar_shift == pytest.approx(0.7, abs=1e-14)
    np.testing.assert_allclose(back.h1_matrix(), ints.h1_matrix(), atol=1e-13)
    np.testing.assert_allclose(back.h2_tensor(), ints.h2_tensor(), atol=1e-13)


def test_spin_round_trip(tmp_path, rng):
    m = 4
    h1 = rng.normal(size=(m, m))
    h1 = (h1 + h1.T) / 2
    h2 = np.zeros((m, m, m, m))
    raw = rng.normal(size=(m, m, m, m))
    for p in ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)):
        h2 += raw.transpose(p) / 4
    spin = integrals.SpinIntegralSet(m, h1, h2, scalar_shift=-1.25)
    path = tmp_path / "s.fcidump"
    save_spin_fcidump(spin, path, nelec=2)
    assert integrals.is_spin_resolved(path)
    back = load_spin_fcidump(path)
    np.testing.assert_allclose(back.h1, h1, atol=1e-13)
    np.testing.assert_allclose(back.h2, h2, atol=1e-13)
    assert back.scalar_shift == pytest.approx(-1.25, abs=1e-14)


def test_spin_file_rejected_by_spatial_loader(tmp_path):
    path = tmp_path / "s.fcidump"
    spin = integrals.SpinIntegralSet(2, np.zeros((2, 2)), np.zeros((2,) * 4))
    save_spin_fcidump(spin, path, nelec=2)
    with pytest.raises(IntegralError, match="spin-resolved"):
        load_fcidump(path)


def test_malformed_lines(tmp_path):
    bad = tmp_path / "bad.fcidump"
    bad.write_text("&FCI NORB=2 NELEC=2 MS2=0\n1 1 0 0\n")
    with pytest.raises(IntegralError, match="expected"):
        load_fcidump(bad)
    bad.write_text("1 1 0 0 0.5\n")
    with pytest.raises(IntegralError, match="header"):
        load_fcidump(bad)


def test_comments_and_blank_lines(tmp_path):
    path = tmp_path / "c.fcidump"
    path.write_text("# dressed two-orbital toy\n&FCI NORB=2 NELEC=2 MS2=0\n"
                    "\n1 1 0 0 -1.0  # diagonal\n1 2 1 2 0.5\n")
    ints = load_fcidump(path)
    assert ints.get_h1(1, 1) == -1.0
    assert ints.get_h2(1, 2, 1, 2) == 0.5


@pytest.mark.parametrize("name,kind,key,value", FIXTURE_SPOT_VALUES)
def test_fixture_spot_values(name, kind, key, value):
    ints = builtin_fixture(name)
    got = ints.get_h1(*key) if kind == "h1" else ints.get_h2(*key)
    assert got == pytest.approx(value, abs=1e-10)


def test_all_fixtures_load():
    for name in integrals.FIXTURE_NAMES:
        ints = builtin_fixture(name)
        assert ints.n_orbitals == 4
        assert len(ints.h1) == 6          # upper triangle, all nonzero
        assert len(ints.h2) == 41         # published canonical entries


def test_fixture_dir_override(tmp_path, monkeypatch):
    monkeypatch.setenv(integrals.DATA_DIR_ENV, str(tmp_path))
    assert fixture_path("h2_ducc_0.8") == str(tmp_path / "h2_ducc_0.8.fcidump")
    monkeypatch.delenv(integrals.DATA_DIR_ENV)
    assert os.path.exists(fixture_path("h2_ducc_0.8"))


def test_unknown_fixture():
    with pytest.raises(IntegralError, match="unknown fixture"):
        fixture_path("h2_nope")


def test_spin_expansion_blocks(rng):
    from conftest import random_integral_set
    ints = random_integral_set(rng, 2)
    spin = ints.to_spin_orbital()
    h2 = ints.h2_tensor()
    # same-spin blocks carry the spatial tensor; spin-off-diagonal vanish
    np.testing.assert_allclose(spin.h2[0::2, 0::2, 1::2, 1::2], h2)
    assert np.all(spin.h2[0::2, 1::2] == 0.0)
    np.testing.assert_allclose(spin.h1[1::2, 1::2], ints.h1_matrix())
