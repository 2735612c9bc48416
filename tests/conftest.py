"""Shared generators for the test suite.

Everything random is drawn from an explicit ``numpy.random.default_rng``
seeded inside each test, so failures reproduce exactly.  Eigenvalue ranges
are moderate by default: the structural identities under test hold at any
conditioning, but closed-form comparisons also spend quadrature budget.

The SPD, PSD and transform generators are those of :mod:`spdmeans.verify`.
``rand_smeasure`` and ``thompson_ball_point`` draw differently from their
``verify`` counterparts, so they stay here and each test keeps its data.
"""

import numpy as np

from spdmeans import PMeasure, SMeasure
from spdmeans.verify import _psd_bump, random_spd, random_transform


def sym(a):
    return 0.5 * (a + a.T)


def rand_spd(rng, dim, lo=0.1, hi=10.0):
    return random_spd(rng, dim, lo, hi)


rand_psd = _psd_bump
conditioned_transform = random_transform


def rand_weights(rng, k):
    w = rng.uniform(0.5, 1.5, k)
    w = w / w.sum()
    w[-1] = 1.0 - w[:-1].sum()
    return w


def rand_smeasure(rng, nodes=64):
    kind = int(rng.integers(0, 4))
    if kind == 0:
        return SMeasure.dirac(float(rng.uniform(0.0, 1.0)))
    if kind == 1:
        k = int(rng.integers(2, 4))
        v = rand_weights(rng, k)
        return SMeasure.from_atoms(list(zip(rng.uniform(0.0, 1.0, k), v)))
    if kind == 2:
        return SMeasure.lebesgue(nodes)
    return SMeasure.power(float(rng.uniform(0.15, 0.85)), nodes)


def rand_measure(rng, dim, n_atoms=None, nodes=64, lo=0.1, hi=10.0):
    k = n_atoms or int(rng.integers(2, 5))
    w = rand_weights(rng, k)
    return PMeasure(
        [(w[i], rand_spd(rng, dim, lo, hi), rand_smeasure(rng, nodes)) for i in range(k)]
    )


def thompson_ball_point(rng, anchor, radius):
    """Random point with Thompson distance at most ``radius`` from the anchor."""
    n = anchor.shape[0]
    w, q = np.linalg.eigh(anchor)
    rs = (q * np.sqrt(w)) @ q.T
    g = sym(rng.standard_normal((n, n)))
    lam, u = np.linalg.eigh(g)
    scale = radius * float(rng.uniform(0.3, 1.0)) / max(abs(lam[0]), abs(lam[-1]))
    return sym(rs @ ((u * np.exp(scale * lam)) @ u.T) @ rs)
