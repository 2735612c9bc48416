"""Shared generators for the test suite.

Everything random is drawn from an explicit ``numpy.random.default_rng``
seeded inside each test, so failures reproduce exactly.  Eigenvalue ranges
are moderate by default: the structural identities under test hold at any
conditioning, but closed-form comparisons also spend quadrature budget.

Every generator here is, or is built from, one of :mod:`spdmeans.verify`, so
the tests and ``spdmeans verify`` draw their random inputs the same way.
"""

import os
import pathlib

import numpy as np

from spdmeans import PMeasure, SMeasure, matrix_to_json
from spdmeans.verify import CHECKS, _psd_bump, random_smeasure, random_spd, random_weights


def sym(a):
    return 0.5 * (a + a.T)


def rand_spd(rng, dim, lo=0.1, hi=10.0):
    return random_spd(rng, dim, lo, hi)


rand_psd = _psd_bump
rand_weights = random_weights
rand_smeasure = random_smeasure


def rand_measure(rng, dim, n_atoms=None, lo=0.1, hi=10.0):
    k = n_atoms or int(rng.integers(2, 5))
    w = rand_weights(rng, k)
    return PMeasure(
        [(w[i], rand_spd(rng, dim, lo, hi), rand_smeasure(rng)) for i in range(k)]
    )


def assert_check(name, seed, draws, dims):
    """Run ``spdmeans verify``'s row ``name`` ``draws`` times on one ``default_rng(seed)``.

    The draws cycle through ``dims``; each must apply (a non-empty result) and pass.
    """
    check = {row: fn for row, _, fn in CHECKS}[name]
    rng = np.random.default_rng(seed)
    failed = []
    for i in range(draws):
        results = check(rng, dims[i % len(dims)])
        if not (results and all(results)):
            failed.append((i, dims[i % len(dims)]))
    assert not failed, f"{name} failed or did not apply at (draw, dim) {failed[:10]}"


def dirac_lebesgue_pair(seed):
    """Two equal-weight 2x2 atoms in [1e-2, 1e2], one under dirac(0), one under Lebesgue."""
    rng = np.random.default_rng(seed)
    a, b = random_spd(rng, 2, 1e-2, 1e2), random_spd(rng, 2, 1e-2, 1e2)
    return PMeasure([(0.5, a, SMeasure.dirac(0.0)), (0.5, b, SMeasure.lebesgue())])


def measure_json(mu):
    """The PMeasure JSON of ``mu``, whose [0, 1]-measures are dirac, atoms, lebesgue or power."""
    def nu_json(nu):
        if nu.kind == "atoms":
            return {"type": "atoms", "points": [{"s": s, "w": v} for s, v in nu.params["points"]]}
        return {"type": nu.kind, **nu.params}

    return {"atoms": [{"weight": w, "nu": nu_json(nu), "matrix": matrix_to_json(m)}
                      for w, m, nu in mu.atoms]}


def subprocess_env():
    """Environment for a Python subprocess that imports ``spdmeans`` from this tree's ``src``."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    return env
