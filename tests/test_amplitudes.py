import re
import warnings
from pathlib import Path

import numpy as np
import oracles
import pytest
from conftest import random_integral_set
from hypothesis import given, settings
from hypothesis import strategies as st

from duccvqe import amplitudes, ducc
from duccvqe.amplitudes import (ClusterAmplitudes, DegenerateReferenceError,
                                ccsd_solve, excitation_label, load_amplitudes,
                                mp2_amplitudes, mp2_energy, save_amplitudes,
                                top_amplitudes)
from duccvqe.cli import EXIT_DATA, EXIT_OK, main
from duccvqe.fermion import (ActiveSpace, NonFiniteError, exact_ground_state,
                             fock_matrix, hf_determinant, hf_energy)
from duccvqe.integrals import (FIXTURE_NAMES, IntegralSet, SpinIntegralSet,
                               builtin_fixture)

# frozen correlation energies on the 10 a.u. fixture
CCSD_ECORR_10 = -0.2389165340
MP2_ECORR_10 = -0.2465242012


def _spin(name):
    return builtin_fixture(name).to_spin_orbital()


def test_canonical_double_storage():
    t = ClusterAmplitudes.empty(2, 4)
    t.set_t2(1, 0, 3, 2, 0.5)          # doubly swapped: sign survives
    assert t.get_t2(0, 1, 2, 3) == 0.5
    assert t.get_t2(1, 0, 2, 3) == -0.5
    assert t.get_t2(0, 1, 3, 2) == -0.5
    assert t.get_t2(0, 0, 2, 3) == 0.0
    assert t.t2[0, 1, 0, 1] == 0.5 and t.t2[1, 0, 0, 1] == -0.5
    assert np.array_equal(t.t2, -t.t2.transpose(1, 0, 2, 3))
    assert np.array_equal(t.t2, -t.t2.transpose(0, 1, 3, 2))
    with pytest.raises(ValueError):
        t.set_t2(0, 0, 2, 3, 0.1)


def test_accessors_reject_modes_outside_the_amplitudes():
    t = ClusterAmplitudes.empty(2, 4)
    with pytest.raises(ValueError, match="virtual modes: 5$"):
        t.get_t1(0, 5)
    with pytest.raises(ValueError, match="occupied modes: 3$"):
        t.get_t2(0, 3, 2, 3)
    with pytest.raises(ValueError, match="occupied modes: 2$"):
        t.set_t1(2, 3, 0.1)
    with pytest.raises(ValueError, match="virtual modes: -1$"):
        t.set_t2(0, 1, 2, -1, 0.1)


def test_labels():
    assert excitation_label((0, 2)) == "1a -> 2a"
    assert excitation_label((0, 1, 2, 3)) == "1a 1b -> 2a 2b"


def test_mp2_closed_form(rng):
    spin = random_integral_set(rng, 3).to_spin_orbital()
    t = mp2_amplitudes(spin, 2)
    assert not t.t1.any()
    g = spin.antisymmetrized()
    eps = np.diag(fock_matrix(spin, hf_determinant(2)))
    for (i, j, a, b), v in (e for e in t.items() if len(e[0]) == 4):
        denom = eps[i] + eps[j] - eps[a] - eps[b]
        assert v == pytest.approx(g[i, j, a, b] / denom, abs=1e-12)
    assert mp2_energy(spin, t) < 0.0


def test_degenerate_reference_detected():
    import duccvqe.integrals as integrals_mod
    ints = integrals_mod.IntegralSet(n_orbitals=2)
    ints.set_h1(1, 1, -1.0)
    ints.set_h1(2, 2, -1.0)  # degenerate orbitals: zero denominator
    with pytest.raises(DegenerateReferenceError, match="denominator"):
        mp2_amplitudes(ints.to_spin_orbital(), 2)


# 2 orbitals, 2 electrons: h1 diagonal, the (pq|rs) set to 1e308, and
# what MP2 and CCSD each find inf or NaN first
OVERFLOWING = {
    "orbital_energy": ((-1.0, 1.0), [(1, 1, 1, 1), (1, 2, 1, 2), (1, 1, 2, 2),
                                     (2, 2, 2, 2)],
                       "an orbital energy", "an orbital energy"),
    "denominator": ((-1e308, 1e308), [], "an energy denominator",
                    "an energy denominator"),
    "amplitude": ((-0.1, 0.1), [(1, 2, 1, 2)], "an MP2 amplitude",
                  "a CCSD residual"),
    "energy": ((-1.0, 1.0), [(1, 2, 1, 2)], "the MP2 energy",
               "a CCSD residual"),
}


@pytest.mark.parametrize("system", list(OVERFLOWING))
def test_overflow_is_a_non_finite_error_without_warnings(system):
    h1, h2_keys, mp2_what, ccsd_what = OVERFLOWING[system]
    ints = IntegralSet(n_orbitals=2)
    for p, value in enumerate(h1, 1):
        ints.set_h1(p, p, value)
    for key in h2_keys:
        ints.set_h2(*key, 1e308)
    spin = ints.to_spin_orbital()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError,
                           match=f"^{mp2_what} is inf or NaN$"):
            mp2_energy(spin, mp2_amplitudes(spin, 2))
        with pytest.raises(NonFiniteError,
                           match=f"^{ccsd_what} is inf or NaN$"):
            ccsd_solve(spin, 2)


def test_diis_falls_back_on_a_singular_b_matrix():
    # two equal error vectors make two equal rows of the B matrix
    diis = amplitudes._Diis()
    err = np.array([1.0, 2.0])
    diis.update(np.array([1.0, 1.0]), err)
    last = np.array([3.0, 4.0])
    assert diis.update(last, err) is last


def test_ccsd_exact_for_two_electrons_on_fixtures():
    for name in ("h2_ducc_0.8", "h2_ducc_10.0"):
        spin = _spin(name)
        ref = hf_determinant(2)
        _, e_corr = ccsd_solve(spin, 2)
        e_fci, _ = exact_ground_state(spin, 2, 0)
        assert hf_energy(spin, ref) + e_corr == pytest.approx(e_fci, abs=1e-8)


def test_ccsd_frozen_value():
    _, e_corr = ccsd_solve(_spin("h2_ducc_10.0"), 2)
    assert e_corr == pytest.approx(CCSD_ECORR_10, abs=1e-8)
    spin = _spin("h2_ducc_10.0")
    t = mp2_amplitudes(spin, 2)
    assert mp2_energy(spin, t) == pytest.approx(MP2_ECORR_10, abs=1e-8)


def test_top_amplitudes_strong_correlation_limit():
    # at stretched geometry the HOMO->LUMO pair dominates
    t, _ = ccsd_solve(_spin("h2_ducc_10.0"), 2)
    top = top_amplitudes(t, 5)
    assert top[0][0] == "1a 1b -> 2a 2b"
    assert top[0][1] > 0.9
    mags = [m for _, m in top]
    assert mags == sorted(mags, reverse=True)
    with pytest.raises(ValueError):
        top_amplitudes(t, 0)


def test_partition_and_recombine():
    t = ClusterAmplitudes.empty(2, 6)
    t.set_t1(0, 2, 0.1)
    t.set_t1(0, 4, 0.2)
    t.set_t2(0, 1, 2, 3, 0.3)   # both virtuals active
    t.set_t2(0, 1, 2, 5, 0.4)   # one external
    space = ActiveSpace.build(3, (1,), (2,))
    _, x1, x2 = ducc._sigma_ext(t, space, 6)
    # sigma_ext holds the external amplitudes only, each with its adjoint
    assert x1[2, 0] == 0.0 and x1[4, 0] == 0.2 and x1[0, 4] == -0.2
    assert np.count_nonzero(x1) == 2
    assert x2[2, 3, 0, 1] == 0.0 and x2[2, 5, 0, 1] == 0.4
    assert x2[0, 1, 2, 5] == -0.4 and np.count_nonzero(x2) == 8
    assert {k: v for k, v in t.items() if v} == {
        (0, 2): 0.1, (0, 4): 0.2, (0, 1, 2, 3): 0.3, (0, 1, 2, 5): 0.4}


def test_amplitude_file_round_trip(tmp_path):
    t, _ = ccsd_solve(_spin("h2_ducc_1.4008"), 2)
    path = tmp_path / "t.amps"
    save_amplitudes(t, path)
    back = load_amplitudes(path, 2, 8)
    np.testing.assert_array_equal(back.t1, t.t1)
    np.testing.assert_allclose(back.t2, t.t2, rtol=0, atol=1e-14)


def test_amplitude_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.amps"
    path.write_text("T3 0 1 2 0.5\n")
    with pytest.raises(ValueError, match="bad amplitude line"):
        load_amplitudes(path, 2, 4)


# h2_ducc_1.4008 with two electrons: occupied modes 0-1, virtual modes 2-7
DOWNFOLD_H2 = ["downfold", "--fixture", "h2_ducc_1.4008", "--active", "1,2"]


@pytest.mark.parametrize("line", ["T1 0 99 0.1", "T1 2 0 0.1",
                                  "T2 0 1 4 -3 0.1"],
                         ids=["beyond_modes", "de_excitation", "negative"])
def test_amplitude_file_index_range_checked(tmp_path, line):
    path = tmp_path / "bad.amps"
    path.write_text(f"T1 0 2 0.01\n{line}\n")
    with pytest.raises(ValueError, match=f"{path}:2: index outside"):
        load_amplitudes(path, 2, 8)
    out = tmp_path / "dressed.fcidump"
    assert main([*DOWNFOLD_H2, "--amplitudes", str(path),
                 "--out", str(out)]) == EXIT_DATA
    assert not out.exists()


@pytest.mark.parametrize("lines", [("T1 0 2 0.1", "T1 0 2 0.2"),
                                   ("T2 0 1 2 3 0.1", "T2 1 0 3 2 0.1")],
                         ids=["single", "double_pairs_swapped"])
def test_amplitude_file_duplicate_rejected(tmp_path, lines):
    path = tmp_path / "dup.amps"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"{path}:2: duplicate amplitude"):
        load_amplitudes(path, 2, 8)
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
        load_amplitudes(path, 2, 8)
    except ValueError:
        pass
    code = main([*DOWNFOLD_H2, "--amplitudes", str(path),
                 "--out", str(workdir / "dressed.fcidump")])
    assert code in (EXIT_OK, EXIT_DATA)


def test_ccsd_matches_fci_on_random_systems(rng):
    for _ in range(3):
        spin = random_integral_set(rng, 4).to_spin_orbital()
        ref = hf_determinant(2)
        _, e_corr = ccsd_solve(spin, 2)
        e_fci, _ = exact_ground_state(spin, 2, 0)
        assert hf_energy(spin, ref) + e_corr == pytest.approx(e_fci, abs=1e-8)


SEEDED = {f"seeded_{n}_{e}": (n, e)
          for n, e in ((3, 2), (5, 3), (5, 4), (6, 6), (8, 4), (12, 6))}


def _system(name):
    """(spin integrals, electrons) of a fixture or of a SEEDED system."""
    if name in FIXTURE_NAMES:
        return _spin(name), 2
    n_orbitals, n_electrons = SEEDED[name]
    spin = random_integral_set(np.random.default_rng(n_orbitals), n_orbitals,
                               gap=3.0).to_spin_orbital()
    return spin, n_electrons


def _ccsd_blocks(spin, n_electrons):
    """The Fock matrix and <pq||rs> as amplitudes._blocks, as ccsd_solve
    takes them."""
    return (amplitudes._blocks(fock_matrix(spin, hf_determinant(n_electrons)),
                               n_electrons, amplitudes.F_BLOCKS),
            amplitudes._blocks(spin.antisymmetrized(), n_electrons,
                               amplitudes.G_BLOCKS))


def _case(system, rng):
    """(spin integrals, electrons) of ``_system``, or of a 6-mode system
    whose (pq|rs) has no symmetry at all, at 2 electrons."""
    if system != "asymmetric":
        return _system(system)
    return SpinIntegralSet(6, np.diag(np.arange(6.0)),
                           rng.normal(size=(6,) * 4)), 2


@pytest.mark.parametrize("system", [*SEEDED, *FIXTURE_NAMES])
def test_blocks_are_the_fancy_index_cut(system):
    spin, n_electrons = _system(system)
    modes = {"o": range(n_electrons),
             "v": range(n_electrons, spin.n_spin_orbitals)}
    for x, keys in ((fock_matrix(spin, hf_determinant(n_electrons)),
                     amplitudes.F_BLOCKS),
                    (spin.antisymmetrized(), amplitudes.G_BLOCKS)):
        for key, block in amplitudes._blocks(x, n_electrons, keys).items():
            assert block.flags.c_contiguous
            assert np.array_equal(block,
                                  x[np.ix_(*(modes[c] for c in key))])


@pytest.mark.parametrize("system", [*SEEDED, *FIXTURE_NAMES, "asymmetric"])
def test_antisymmetrized_blocks_are_cut_from_the_full_tensor(system, rng):
    # ccsd_solve reads each <pq||rs> block off (pq|rs) by the single
    # subtraction antisymmetrized() makes: the same bits, contiguous
    spin, n_electrons = _case(system, rng)
    want = amplitudes._blocks(spin.antisymmetrized(), n_electrons,
                              amplitudes.G_BLOCKS)
    got = amplitudes._blocks(spin, n_electrons, amplitudes.G_BLOCKS,
                             SpinIntegralSet.antisymmetrized)
    for key, block in got.items():
        assert block.flags.c_contiguous
        assert np.array_equal(block, want[key])


@pytest.mark.parametrize("system", [*SEEDED, *FIXTURE_NAMES, "asymmetric"])
def test_mp2_matches_full_tensor_oracle(system, rng):
    # the asymmetric case: both forms are identities for any h2
    spin, n_electrons = _case(system, rng)
    t = mp2_amplitudes(spin, n_electrons)
    want = oracles.mp2_amplitudes(spin, n_electrons)
    assert (t.occupied, t.virtual) == (want.occupied, want.virtual)
    assert not t.t1.any()
    np.testing.assert_allclose(t.t2, want.t2, rtol=0, atol=1e-14)
    assert mp2_energy(spin, t) == pytest.approx(
        oracles.mp2_energy(spin, want), abs=1e-14)


def _assembled(f, g):
    """f, <pq||rs>, o, v in the occupied-then-virtual order of the oracle,
    from amplitudes._blocks; NaN in the blocks those leave out."""
    no, nv = f["ov"].shape
    o, v = slice(0, no), slice(no, no + nv)

    def full(blocks, rank):
        x = np.full((no + nv,) * rank, np.nan)
        for key, block in blocks.items():
            x[tuple(o if c == "o" else v for c in key)] = block
        return x

    return full(f, 2), full(g, 4), o, v


@pytest.mark.parametrize("system", [*SEEDED, *FIXTURE_NAMES])
def test_ccsd_residuals_match_oracle(system):
    # random, non-converged amplitudes: at convergence every residual is
    # near zero and a wrong term would not show
    blocks = _ccsd_blocks(*_system(system))
    f, g, o, v = _assembled(*blocks)
    assert np.abs(f - np.diag(np.diag(f))).max() > 1e-3
    nv, no = v.stop - v.start, o.stop
    rng = np.random.default_rng(nv)
    t1 = 0.1 * rng.normal(size=(nv, no))
    t2 = amplitudes._antisymmetric(0.1 * rng.normal(size=(nv, nv, no, no)))
    assert np.abs(t1).min() > 0.0
    r1, r2 = amplitudes._residuals(t1, t2, *blocks)
    np.testing.assert_allclose(
        r1, oracles._singles_residual(t1, t2, f, g, o, v), rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        r2, oracles._doubles_residual(t1, t2, f, g, o, v), rtol=0, atol=1e-12)
    assert amplitudes.correlation_energy(*blocks, t1, t2) == pytest.approx(
        oracles.correlation_energy(f, g, t1, t2, o, v), abs=1e-12)


SRC = Path(amplitudes.__file__).parent


def test_contract_matches_einsum_on_every_src_subscripts():
    # every pairwise subscripts literal in the package, whichever name the
    # call site gives contract
    pattern = re.compile(r'"([a-z]+,[a-z]+->[a-z]*)"')
    found = {m for path in SRC.glob("*.py")
             for m in pattern.findall(path.read_text())}
    assert len(found) >= 40
    rng = np.random.default_rng(7)
    size = {i: int(rng.integers(2, 5)) for i in "abcdefghijklmnopqrstuvwxyz"}
    for subscripts in sorted(found):
        x, y = (rng.normal(size=[size[i] for i in spec])
                for spec in subscripts.split("->")[0].split(","))
        np.testing.assert_allclose(amplitudes.contract(subscripts, x, y),
                                   np.einsum(subscripts, x, y),
                                   rtol=1e-13, atol=1e-13,
                                   err_msg=subscripts)


@pytest.mark.parametrize("subscripts", [
    "ij,jk->ijk",      # j summed and kept: a batch index
    "ij,jk->ki j",     # not an index
    "ii,ij->j",        # repeated within one operand
    "ij,jk->iik",      # repeated in the output
    "ij,jk->i",        # k neither summed nor kept
    "ij,jk->ikl",      # l in neither operand
    "ij,jk,kl->il",    # three operands
    "ij,jk",           # no output
])
def test_contract_rejects_what_is_not_a_pairwise_product(subscripts):
    x = np.ones((2, 2))
    with pytest.raises(ValueError, match="not a pairwise contraction"):
        amplitudes.contract(subscripts, x, x)


def _counted(residuals, calls):
    def wrapped(*args):
        calls.append(None)
        return residuals(*args)
    return wrapped


def _oracle_residuals(t1, t2, f, g):
    f, g, o, v = _assembled(f, g)
    return (oracles._singles_residual(t1, t2, f, g, o, v),
            oracles._doubles_residual(t1, t2, f, g, o, v))


def _oracle_energy(f, g, t1, t2):
    f, g, o, v = _assembled(f, g)
    return oracles.correlation_energy(f, g, t1, t2, o, v)


@pytest.mark.parametrize("system", [*FIXTURE_NAMES, "seeded_5_4",
                                    "seeded_6_6"])
def test_ccsd_solve_matches_oracle_driven_solve(monkeypatch, system):
    spin, n_electrons = _system(system)
    fast_calls, oracle_calls = [], []
    monkeypatch.setattr(amplitudes, "_residuals",
                        _counted(amplitudes._residuals, fast_calls))
    t, e_corr = ccsd_solve(spin, n_electrons)
    monkeypatch.setattr(amplitudes, "_residuals",
                        _counted(_oracle_residuals, oracle_calls))
    monkeypatch.setattr(amplitudes, "correlation_energy", _oracle_energy)
    t_oracle, e_oracle = ccsd_solve(spin, n_electrons)
    assert len(fast_calls) == len(oracle_calls) > 1
    assert e_corr == pytest.approx(e_oracle, abs=1e-12)
    np.testing.assert_allclose(t.t1, t_oracle.t1, rtol=0, atol=1e-12)
    np.testing.assert_allclose(t.t2, t_oracle.t2, rtol=0, atol=1e-12)


@pytest.mark.parametrize("solver", ["mp2", "ccsd"])
def test_doubles_exactly_antisymmetric(solver):
    systems = [(_spin(name), 2) for name in ("h2_ducc_0.8", "h2_ducc_10.0")]
    systems += [(random_integral_set(np.random.default_rng(n), n,
                                     gap=3.0).to_spin_orbital(), nelec)
                for n, nelec in ((4, 2), (5, 4), (6, 6))]
    for spin, nelec in systems:
        t = mp2_amplitudes(spin, nelec) if solver == "mp2" \
            else ccsd_solve(spin, nelec)[0]
        assert np.array_equal(t.t2, -t.t2.transpose(1, 0, 2, 3))
        assert np.array_equal(t.t2, -t.t2.transpose(0, 1, 3, 2))
