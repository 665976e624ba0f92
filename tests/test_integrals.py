import importlib.util
import json
import os
from pathlib import Path

import numpy as np
import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from duccvqe import integrals
from duccvqe.fermion import NonFiniteError
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
    np.testing.assert_allclose(back.h1, ints.h1, atol=1e-13)
    np.testing.assert_allclose(back.h2, ints.h2, atol=1e-13)


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
    assert isinstance(integrals.read_fcidump(path)[0],
                      integrals.SpinIntegralSet)
    back = load_spin_fcidump(path)
    np.testing.assert_allclose(back.h1, h1, atol=1e-13)
    np.testing.assert_allclose(back.h2, h2, atol=1e-13)
    assert back.scalar_shift == pytest.approx(-1.25, abs=1e-14)


def test_spin_save_rejects_conflicting_orbit(tmp_path):
    m = 4
    spin = integrals.SpinIntegralSet(m, np.zeros((m, m)), np.zeros((m,) * 4))
    spin.h2[0, 0, 2, 2], spin.h2[2, 2, 0, 0] = 0.3, 0.7
    path = tmp_path / "s.fcidump"
    with pytest.raises(IntegralError, match="duplicate"):
        save_spin_fcidump(spin, path, nelec=2)
    assert not path.exists()
    spin.h2[2, 2, 0, 0] = 0.3
    spin.h1[0, 1] = 0.1
    with pytest.raises(IntegralError, match="duplicate"):
        save_spin_fcidump(spin, path, nelec=2)
    assert not path.exists()
    # members within DUPLICATE_TOL: the smallest index tuple's value is kept
    spin.h1[1, 0] = 0.1 + 1e-13
    spin.h2[2, 2, 0, 0] = 0.3 + 1e-13
    save_spin_fcidump(spin, path, nelec=2)
    assert path.read_text().splitlines()[1:] == [
        f"1 1 3 3 {0.3:.16e}", f"1 2 0 0 {0.1:.16e}"]


@pytest.mark.parametrize("layout,norb", [("spatial", 33), ("spatial", 1000),
                                         ("spin", 65), ("spin", 1000)])
def test_orbital_count_above_cap_rejected(tmp_path, layout, norb):
    from duccvqe.cli import EXIT_DATA, main
    uhf = " UHF=.TRUE." if layout == "spin" else ""
    load = load_fcidump if layout == "spatial" else load_spin_fcidump
    path = tmp_path / "big.fcidump"
    path.write_text(f"&FCI NORB={norb} NELEC=2{uhf}\n1 1 0 0 -1.0\n")
    with pytest.raises(IntegralError, match="above the cap"):
        load(path)
    assert main(["eig", "--integrals", str(path)]) == EXIT_DATA
    # the paper's H2/cc-pVTZ size, 56 spin orbitals, stays accepted
    norb = 28 if layout == "spatial" else 56
    path.write_text(f"&FCI NORB={norb} NELEC=2{uhf}\n1 1 0 0 -1.0\n")
    assert isinstance(load(path), (IntegralSet, integrals.SpinIntegralSet))


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
        assert np.count_nonzero(ints.given1) == 6  # upper triangle, nonzero
        assert np.count_nonzero(ints.given2) == 41  # published canonical


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
    h2 = ints.h2
    # same-spin blocks carry the spatial tensor; spin-off-diagonal vanish
    np.testing.assert_allclose(spin.h2[0::2, 0::2, 1::2, 1::2], h2)
    assert np.all(spin.h2[0::2, 1::2] == 0.0)
    np.testing.assert_allclose(spin.h1[1::2, 1::2], ints.h1)


def test_antisymmetrized_reads_any_index_off_the_full_tensor(rng):
    # h2 without any symmetry, so that a swapped index shows
    m = 5
    spin = integrals.SpinIntegralSet(m, np.zeros((m, m)),
                                     rng.normal(size=(m,) * 4))
    full = spin.antisymmetrized()
    g = spin.h2
    assert np.array_equal(full, np.einsum("prqs->pqrs", g)
                          - np.einsum("psqr->pqrs", g))
    p, q, r = np.ogrid[:m, :m, :m]
    a, b = rng.integers(0, m, size=(2, 7))
    for index in (np.s_[1:3, :2, 2:, 1:4], np.ix_([4, 0], [1], [3, 2], [0]),
                  (p, q, p, q), (p, r, q, r), (a, b, b, a)):
        assert np.array_equal(spin.antisymmetrized(index), full[index])


@pytest.mark.parametrize("entry", ["h1", "h2", "scalar"])
def test_non_finite_integrals_are_not_saved(tmp_path, entry):
    spin = builtin_fixture("h2_ducc_1.4008").to_spin_orbital()
    if entry == "h1":
        spin.h1[0, 0] = np.nan
    elif entry == "h2":
        spin.h2[0, 0, 1, 1] = np.inf
    else:
        spin.scalar_shift = np.nan
    path = tmp_path / "spin.fcidump"
    with pytest.raises(NonFiniteError):
        save_spin_fcidump(spin, path, nelec=2)
    assert not path.exists()


_VALUE = st.one_of(st.floats(-1.0, 1.0), st.floats()).map(repr)
_INDEX = st.integers(-1, 5)
_HEADER_FIELD = st.one_of(
    st.tuples(st.sampled_from(["NORB", "NELEC", "MS2", "UHF", "norb", "X"]),
              st.one_of(st.integers(-2, 5).map(str),
                        st.sampled_from([".TRUE.", ".FALSE.", "", "2.0"]))
              ).map("=".join),
    st.sampled_from(["&FCI", ",", "/", "&END"]))
_HEADER = st.lists(_HEADER_FIELD, max_size=5).map(
    lambda fields: "&FCI " + " ".join(fields))
_TOKEN = st.one_of(_INDEX.map(str), _VALUE,
                   st.sampled_from(["&FCI", "/", "&END", "#", "x"]),
                   st.text("0123456789.-+eE", max_size=4))
_DATA = st.one_of(st.tuples(_INDEX, _INDEX, _INDEX, _INDEX, _VALUE),
                  st.lists(_TOKEN, max_size=6)).map(
    lambda fields: " ".join(map(str, fields)))


@pytest.mark.parametrize("flag", ["", " UHF=.TRUE."])
@settings(max_examples=200, deadline=None)
@given(header=_HEADER, lines=st.lists(st.one_of(_DATA, _HEADER), max_size=6))
@example(header="&FCI NORB=1 NELEC=2",  # an energy past the float range
         lines=["1 1 0 0 -1.7e308", "1 1 1 1 1.7e308"])
@example(header="&FCI NORB=-1", lines=[])
@example(header="&FCI NORB=1000 NELEC=2", lines=[])  # 7 TiB of tensors
def test_fcidump_fuzz(tmp_path_factory, flag, header, lines):
    from duccvqe.cli import EXIT_DATA, EXIT_OK, main
    workdir = tmp_path_factory.mktemp("fcidump")
    path, out = workdir / "fuzz.fcidump", workdir / "eig.json"
    path.write_text("\n".join([header + flag, *lines]) + "\n")
    for load in (load_fcidump, load_spin_fcidump):
        try:
            load(path)
        except IntegralError:
            pass
    code = main(["eig", "--integrals", str(path), "--out", str(out)])
    assert code in (EXIT_OK, EXIT_DATA)
    if code == EXIT_OK:
        assert np.isfinite(json.loads(out.read_text())["energy"])


# The array parse, the dense IntegralSet and the masked writers against the
# dict-based reader and writers of tests/oracles.py: equal bit for bit and
# byte for byte, errors included.

_COMMENTED = {
    # repeats of an orbit within DUPLICATE_TOL of the line before, the
    # last past it from the first: the orbit takes the last value
    "spatial": "# a two-orbital toy\n\n&FCI NORB=2 NELEC=2 MS2=0\n/\n"
               "1 1 0 0 -1.0  # diagonal\n\n1 2 1 2 0.5\n"
               " 2 1 2 1 0.5000000000008 \n1 2 1 2 0.5000000000016\n"
               "1\t2 0 0 1e-3\n&END\n2 2 0 0 0.0\n0 0 0 0 0.25\n",
    "spin": "&FCI NORB=4 NELEC=2 MS2=0 UHF=.TRUE.\n# alpha-beta flips\n"
            "1 2 0 0 0.05\n2 1 0 0 0.0500000000005  # the same orbit\n/\n"
            "1 2 4 3 0.02\n4 3 1 2 0.02\n3 3 1 1 -0.3\n0 0 0 0 -1.5\n&END\n",
}


def _bench_inputs():
    """The benchmark's input module, benchmarks/inputs.py."""
    path = Path(__file__).parents[1] / "benchmarks" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _seeded_sets(monkeypatch, cls):
    """Seeded spatial sets of 2-6 orbitals built through ``cls``, by the
    recipes of tests/conftest.py and benchmarks/inputs.py."""
    from conftest import random_integral_set
    inputs = _bench_inputs()
    monkeypatch.setattr(integrals, "IntegralSet", cls)
    monkeypatch.setattr(inputs, "IntegralSet", cls)
    sets = []
    for n in range(2, 7):
        sets.append(random_integral_set(np.random.default_rng([11, n]), n))
        sets[-1].scalar_shift = 0.5 * n
        sets.append(inputs.random_integral_set(np.random.default_rng(n), n))
    monkeypatch.undo()
    return sets


def _oracle_files(tmp_path, monkeypatch):
    """Files both readers must read alike: the fixtures, the seeded sets
    and their spin-resolved expansions, and files with comments, blank
    lines, '/' and '&END'."""
    paths = [fixture_path(name) for name in integrals.FIXTURE_NAMES]
    for k, ints in enumerate(_seeded_sets(monkeypatch, IntegralSet)):
        for layout, save in (("spatial", save_fcidump),
                             ("spin", save_spin_fcidump)):
            path = tmp_path / f"{layout}{k}.fcidump"
            save(ints if layout == "spatial" else ints.to_spin_orbital(),
                 path, nelec=2)
            paths.append(path)
    for layout, text in _COMMENTED.items():
        path = tmp_path / f"commented_{layout}.fcidump"
        path.write_text(text)
        paths.append(path)
    return paths


def _outcome(read, path):
    """(spin h1, spin h2, scalar, nelec, ms2) of ``read(path)``, the
    spatial h1 and h2 added for a spatial file; or the IntegralError."""
    try:
        ints, nelec, ms2 = read(path)
    except IntegralError as exc:
        return str(exc)
    out = []
    if isinstance(ints, IntegralSet):
        out = [ints.h1, ints.h2]
    elif isinstance(ints, oracles.DictIntegralSet):
        out = [ints.h1_matrix(), ints.h2_tensor()]
    if out:
        ints = ints.to_spin_orbital()
    return [*out, ints.h1, ints.h2, ints.scalar_shift, nelec, ms2]


def _assert_same_outcome(path):
    got = _outcome(integrals.read_fcidump, path)
    want = _outcome(oracles.read_fcidump, path)
    if isinstance(want, str):
        assert got == want
    else:
        assert len(got) == len(want)
        for x, y in zip(got, want):
            assert np.array_equal(x, y)     # bit for bit: == on floats


def test_loaded_integrals_are_the_dict_oracle(tmp_path, monkeypatch):
    for path in _oracle_files(tmp_path, monkeypatch):
        _assert_same_outcome(path)
    # the canonical entries a file lists are the dict oracle's keys
    got = integrals.read_fcidump(tmp_path / "commented_spatial.fcidump")[0]
    want = oracles.read_fcidump(tmp_path / "commented_spatial.fcidump")[0]
    assert [tuple(p + 1 for p in key) for key in np.argwhere(got.given1)] \
        == sorted(want.h1)
    assert [tuple(p + 1 for p in key) for key in np.argwhere(got.given2)] \
        == sorted(want.h2)


def test_written_files_are_the_dict_oracle(tmp_path, monkeypatch):
    new_sets = _seeded_sets(monkeypatch, IntegralSet)
    old_sets = _seeded_sets(monkeypatch, oracles.DictIntegralSet)
    # the fixtures, and a file that lists a zero entry
    commented = tmp_path / "commented.fcidump"
    commented.write_text(_COMMENTED["spatial"])
    paths = [fixture_path(name) for name in integrals.FIXTURE_NAMES]
    new_sets += [load_fcidump(path) for path in [*paths, commented]]
    old_sets += [oracles.read_fcidump(path)[0] for path in [*paths, commented]]
    for new, old in zip(new_sets, old_sets):
        for ints, save in ((new, save_fcidump),
                           (old, oracles.save_fcidump),
                           (new.to_spin_orbital(), save_spin_fcidump),
                           (old.to_spin_orbital(), oracles.save_spin_fcidump)):
            save(ints, tmp_path / f"{save.__module__}.{save.__name__}",
                 nelec=2)
        for name in ("save_fcidump", "save_spin_fcidump"):
            assert (tmp_path / f"duccvqe.integrals.{name}").read_bytes() \
                == (tmp_path / f"oracles.{name}").read_bytes()


def _written(save, spin, path):
    """The bytes ``save`` writes for ``spin``, or its error message."""
    path.unlink(missing_ok=True)
    try:
        save(spin, path, nelec=1)
    except (IntegralError, NonFiniteError) as exc:
        assert not path.exists()
        return str(exc)
    return path.read_bytes()


def test_spin_writer_is_the_dict_oracle_on_unsymmetric_tensors(tmp_path):
    # orbit members equal, within DUPLICATE_TOL and past it, entries at or
    # below PRUNE_THRESHOLD: the same file or the same error
    rng = np.random.default_rng(5)
    values = [0.0, 0.3, 0.3 + 1e-13, 0.3 + 1e-11, 1e-13, -0.2]
    n_errors = 0
    for _ in range(300):
        m = int(rng.integers(1, 5))
        h1 = rng.choice(values, size=(m, m))
        h2 = rng.choice(values + [0.0] * 3, size=(m,) * 4)
        if rng.random() < 0.5:
            h1 = np.triu(h1) + np.triu(h1, 1).T
            h2 = sum(h2.transpose(p) for p in integrals.ORBITS[4])
        spin = integrals.SpinIntegralSet(m, h1, h2, rng.choice([0.0, -1.5]))
        got, want = (_written(save, spin, tmp_path / name) for save, name in
                     ((save_spin_fcidump, "new"),
                      (oracles.save_spin_fcidump, "old")))
        assert got == want
        n_errors += isinstance(got, str)
    assert 0 < n_errors < 300


_LINE = st.tuples(*[st.integers(-1, 4)] * 4,
                  st.sampled_from(["0.5", "0.5000000000001", "0.5000000001",
                                   "-0.3", "0.0", "+1", "x", "1e400"]),
                  st.sampled_from(["", " # c", "\t"])).map(
    lambda f: " ".join(map(str, f[:5])) + f[5])


@settings(max_examples=300, deadline=None)
@given(norb=st.integers(1, 4), flag=st.sampled_from(["", " UHF=.TRUE."]),
       lines=st.lists(st.one_of(_LINE, _DATA, _HEADER,
                                st.sampled_from(["", "/", "&END", "# c"])),
                      max_size=12))
@example(norb=2, flag="", lines=["1 1 0 0 1", "99999999999999999999 1 0 0 1"])
@example(norb=2, flag="", lines=["1 2 1 2 0.5", "2 1 2 1 0.5000000001"])
def test_parse_is_the_dict_oracle_on_any_file(tmp_path_factory, norb, flag,
                                              lines):
    path = tmp_path_factory.mktemp("fcidump") / "any.fcidump"
    path.write_text("\n".join([f"&FCI NORB={norb} NELEC=2{flag}", *lines]))
    _assert_same_outcome(path)
