import warnings

import numpy as np
import pytest
from conftest import random_integral_set
from hypothesis import given, settings
from hypothesis import strategies as st

from duccvqe import amplitudes
from duccvqe.amplitudes import (ClusterAmplitudes, DegenerateReferenceError,
                                ccsd_solve, excitation_label, load_amplitudes,
                                mp2_amplitudes, mp2_energy, partition,
                                save_amplitudes, screen, top_amplitudes)
from duccvqe.cli import EXIT_DATA, EXIT_OK, main
from duccvqe.fermion import (ActiveSpace, build_hamiltonian,
                             exact_ground_state, hf_determinant, hf_energy)
from duccvqe.integrals import builtin_fixture

# frozen correlation energies on the 10 a.u. fixture
CCSD_ECORR_10 = -0.2389165340
MP2_ECORR_10 = -0.2465242012


def _spin(name):
    return builtin_fixture(name).to_spin_orbital()


def test_canonical_double_storage():
    t = ClusterAmplitudes.empty((0, 1), (2, 3))
    t.set_t2(1, 0, 3, 2, 0.5)          # doubly swapped: sign survives
    assert t.get_t2(0, 1, 2, 3) == 0.5
    assert t.get_t2(1, 0, 2, 3) == -0.5
    assert t.get_t2(0, 1, 3, 2) == -0.5
    assert t.get_t2(0, 0, 2, 3) == 0.0
    with pytest.raises(ValueError):
        t.set_t2(0, 0, 2, 3, 0.1)


def test_labels():
    assert excitation_label((0, 2)) == "1a -> 2a"
    assert excitation_label((0, 1, 2, 3)) == "1a 1b -> 2a 2b"


def test_mp2_closed_form(rng):
    spin = random_integral_set(rng, 3).to_spin_orbital()
    ref = hf_determinant(2)
    t = mp2_amplitudes(spin, ref)
    assert not t.t1
    g = spin.antisymmetrized()
    from duccvqe.fermion import fock_matrix
    eps = np.diag(fock_matrix(spin, ref))
    for (i, j, a, b), v in t.t2.items():
        denom = eps[i] + eps[j] - eps[a] - eps[b]
        assert v == pytest.approx(g[i, j, a, b] / denom, abs=1e-12)
    assert mp2_energy(spin, ref, t) < 0.0


def test_degenerate_reference_detected():
    import duccvqe.integrals as integrals_mod
    ints = integrals_mod.IntegralSet(n_orbitals=2)
    ints.set_h1(1, 1, -1.0)
    ints.set_h1(2, 2, -1.0)  # degenerate orbitals: zero denominator
    with pytest.raises(DegenerateReferenceError, match="denominator"):
        mp2_amplitudes(ints.to_spin_orbital(), hf_determinant(2))


def test_ccsd_exact_for_two_electrons_on_fixtures():
    for name in ("h2_ducc_0.8", "h2_ducc_10.0"):
        spin = _spin(name)
        ref = hf_determinant(2)
        _, e_corr = ccsd_solve(spin, ref)
        e_fci, _ = exact_ground_state(build_hamiltonian(spin), 2, 0)
        assert hf_energy(spin, ref) + e_corr == pytest.approx(e_fci, abs=1e-8)


def test_ccsd_frozen_value():
    _, e_corr = ccsd_solve(_spin("h2_ducc_10.0"), hf_determinant(2))
    assert e_corr == pytest.approx(CCSD_ECORR_10, abs=1e-8)
    spin = _spin("h2_ducc_10.0")
    t = mp2_amplitudes(spin, hf_determinant(2))
    assert mp2_energy(spin, hf_determinant(2), t) == pytest.approx(
        MP2_ECORR_10, abs=1e-8)


def test_top_amplitudes_strong_correlation_limit():
    # at stretched geometry the HOMO->LUMO pair dominates
    t, _ = ccsd_solve(_spin("h2_ducc_10.0"), hf_determinant(2))
    top = top_amplitudes(t, 5)
    assert top[0][0] == "1a 1b -> 2a 2b"
    assert top[0][1] > 0.9
    mags = [m for _, m in top]
    assert mags == sorted(mags, reverse=True)
    with pytest.raises(ValueError):
        top_amplitudes(t, 0)


def test_partition_and_recombine():
    t = ClusterAmplitudes.empty((0, 1), (2, 3, 4, 5))
    t.set_t1(0, 2, 0.1)
    t.set_t1(0, 4, 0.2)
    t.set_t2(0, 1, 2, 3, 0.3)   # both virtuals active
    t.set_t2(0, 1, 2, 5, 0.4)   # one external
    space = ActiveSpace.build(3, (1,), (2,))
    part = partition(t, space)
    assert part.internal.t1 == {(0, 2): 0.1}
    assert part.external.t1 == {(0, 4): 0.2}
    assert set(part.internal.t2) == {(0, 1, 2, 3)}
    assert set(part.external.t2) == {(0, 1, 2, 5)}
    merged = ClusterAmplitudes(t.occupied, t.virtual,
                               {**part.internal.t1, **part.external.t1},
                               {**part.internal.t2, **part.external.t2})
    assert merged.t1 == t.t1 and merged.t2 == t.t2


def test_screen_keeps_singles():
    t = ClusterAmplitudes.empty((0, 1), (2, 3))
    t.set_t1(0, 2, 1e-9)
    t.set_t2(0, 1, 2, 3, 1e-6)
    kept = screen(t, 1e-5)
    assert kept.t1 == t.t1
    assert not kept.t2
    with pytest.raises(ValueError):
        screen(t, -1.0)


def test_amplitude_file_round_trip(tmp_path):
    t, _ = ccsd_solve(_spin("h2_ducc_1.4008"), hf_determinant(2))
    path = tmp_path / "t.amps"
    save_amplitudes(t, path)
    back = load_amplitudes(path, t.occupied, t.virtual)
    assert set(back.t1) == set(t.t1) and set(back.t2) == set(t.t2)
    for k, v in t.t2.items():
        assert back.t2[k] == pytest.approx(v, abs=1e-14)


def test_amplitude_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.amps"
    path.write_text("T3 0 1 2 0.5\n")
    with pytest.raises(ValueError, match="bad amplitude line"):
        load_amplitudes(path, (0, 1), (2, 3))


# h2_ducc_1.4008 with two electrons: occupied modes 0-1, virtual modes 2-7
DOWNFOLD_H2 = ["downfold", "--fixture", "h2_ducc_1.4008", "--active", "1,2"]


@pytest.mark.parametrize("line", ["T1 0 99 0.1", "T1 2 0 0.1",
                                  "T2 0 1 4 -3 0.1"],
                         ids=["beyond_modes", "de_excitation", "negative"])
def test_amplitude_file_index_range_checked(tmp_path, line):
    path = tmp_path / "bad.amps"
    path.write_text(f"T1 0 2 0.01\n{line}\n")
    with pytest.raises(ValueError, match=f"{path}:2: index outside"):
        load_amplitudes(path, range(2), range(2, 8))
    out = tmp_path / "dressed.fcidump"
    assert main([*DOWNFOLD_H2, "--amplitudes", str(path),
                 "--out", str(out)]) == EXIT_DATA
    assert not out.exists()


def test_overflowing_amplitude_is_a_data_error(tmp_path):
    path = tmp_path / "huge.amps"
    path.write_text("T1 0 4 1e200\n")
    out = tmp_path / "dressed.fcidump"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*DOWNFOLD_H2, "--amplitudes", str(path),
                     "--out", str(out)]) == EXIT_DATA
    assert not out.exists()


_VALUE = st.one_of(st.floats(-1.0, 1.0), st.floats()).map(repr)
_ANY_MODE = st.integers(-1, 9)
_TOKEN = st.one_of(st.sampled_from(["T1", "T2", "T3", "t1", "#", "x"]),
                   _ANY_MODE.map(str), _VALUE,
                   st.text("0123456789.-+eE", max_size=4))


def _amplitude_lines(hole, particle):
    return st.one_of(
        st.tuples(st.just("T1"), hole, particle, _VALUE),
        st.tuples(st.just("T2"), hole, hole, particle, particle, _VALUE))


_LINE = st.one_of(
    _amplitude_lines(st.sampled_from([0, 1]), st.integers(2, 7)),
    _amplitude_lines(_ANY_MODE, _ANY_MODE),
    st.lists(_TOKEN, max_size=7)).map(lambda fields: " ".join(map(str, fields)))


@settings(max_examples=200, deadline=None)
@given(st.lists(_LINE, max_size=4))
def test_amplitude_file_fuzz(tmp_path_factory, lines):
    workdir = tmp_path_factory.mktemp("amps")
    path = workdir / "fuzz.amps"
    path.write_text("\n".join(lines) + "\n")
    try:
        load_amplitudes(path, range(2), range(2, 8))
    except ValueError:
        pass
    code = main([*DOWNFOLD_H2, "--amplitudes", str(path),
                 "--out", str(workdir / "dressed.fcidump")])
    assert code in (EXIT_OK, EXIT_DATA)


def test_ccsd_matches_fci_on_random_systems(rng):
    for _ in range(3):
        spin = random_integral_set(rng, 4).to_spin_orbital()
        ref = hf_determinant(2)
        _, e_corr = ccsd_solve(spin, ref)
        e_fci, _ = exact_ground_state(build_hamiltonian(spin), 2, 0)
        assert hf_energy(spin, ref) + e_corr == pytest.approx(e_fci, abs=1e-8)
