"""Seeded random integral sets, written as spatial FCIDUMP files.

The recipe is the one the test suite uses for its randomized systems:
sorted one-body energies spread by an HF gap, so the lowest determinant is
a safe closed-shell reference, plus weak two-body noise symmetrized over
the 8-fold real-orbital group. The same (seed, item) always gives the same
file, byte for byte.
"""

from __future__ import annotations

import os

import numpy as np

from duccvqe.integrals import IntegralSet, save_fcidump

# The test suite's default gap is 1. At that gap some seeds give strongly
# correlated systems: over seeds 0-29 one 6-orbital, 6-electron system has a
# CCSD error of 1.8 mHa, past chemical accuracy (a limit of CCSD, not a
# defect), and a 4-orbital VQE takes 325-704 COBYLA evaluations, so the seed
# rather than the code would set solve_s. At gap 3, over seeds 0-29, the
# CCSD error stays below 1.1e-5 and the dressed-energy error below 3.5e-4;
# over seeds 2-11, a 3-orbital, 4-electron VQE takes 151-264 evaluations.
GAP = 3.0
NOISE = 0.1

_EIGHTFOLD = ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0),
              (1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 1, 0), (3, 2, 0, 1))


def random_integral_set(rng, n_orbitals) -> IntegralSet:
    eps = np.sort(rng.uniform(-2.0, 2.0, n_orbitals))
    eps += GAP * np.arange(n_orbitals)
    sym = rng.normal(size=(n_orbitals, n_orbitals))
    h1 = np.diag(eps) + NOISE * (sym + sym.T) / 2
    raw = rng.normal(size=(n_orbitals,) * 4)
    h2 = sum(raw.transpose(perm) for perm in _EIGHTFOLD) * (NOISE / 8.0)
    ints = IntegralSet(n_orbitals=n_orbitals)
    idx = range(1, n_orbitals + 1)
    for i in idx:
        for j in range(i, n_orbitals + 1):
            ints.set_h1(i, j, float(h1[i - 1, j - 1]))
    for i in idx:
        for j in idx:
            for k in idx:
                for l in idx:
                    value = float(h2[i - 1, j - 1, k - 1, l - 1])
                    ints.set_h2(i, j, k, l, value)
    return ints


def write_system(directory, seed, item, n_orbitals, n_electrons) -> dict:
    """Write system ``item`` of ``seed``; returns its manifest entry."""
    rng = np.random.default_rng([seed, item])
    ints = random_integral_set(rng, n_orbitals)
    path = os.path.join(directory, f"rand{n_orbitals}_{item}.fcidump")
    save_fcidump(ints, path, nelec=n_electrons)
    return {"path": path, "seed": seed, "item": item, "orbitals": n_orbitals,
            "electrons": n_electrons, "gap": GAP}
