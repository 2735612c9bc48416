"""Thompson part metric on the SPD cone and explicit contraction factors.

The metric is ``d(A, B) = max(log M(A/B), log M(B/A))`` with
``M(A/B) = inf{alpha : A <= alpha B}``.  It is computed from the spectrum of
``B^(-1/2) A B^(-1/2)``, taken as that of the symmetric ``C.T A C`` in B's frame
``C.T B C = I`` (never via a generalized eigenproblem) by
:func:`spdmeans.core._whitened_pair`, which keeps symmetry exact.

The contraction factors quantify how fast the affine map ``B -> aA + bB``
and the two-parameter mean iteration contract Thompson balls of radius
``r`` around the anchor matrix; below one, they round to 1.0 at large ``r``.
"""

import math
import sys

import numpy as np

from .core import _whitened_pair
from .errors import DomainError, NotPositiveDefinite

_R_MAX = 1e300  # radii clamp here: 2r stays finite, and each factor is at its limit from r ~ 1e4


def min_scaling(a, b) -> float:
    """Smallest ``alpha`` with ``A <= alpha B``: the top eigenvalue of ``B^(-1/2) A B^(-1/2)``.

    Raises DomainError when alpha lies outside the normal float range, where no float
    states it.
    """
    _, _, k, _, _, lam, _ = _whitened_pair(b, a)  # the top eigenvalue for 2^k A is 2^k alpha
    m, e = math.frexp(lam[0, -1])
    if not sys.float_info.min_exp <= e - k <= sys.float_info.max_exp:
        raise DomainError(f"A <= alpha B needs alpha near 2^{e - k}, outside the float range")
    return math.ldexp(m, e - k)


def distance(a, b) -> float:
    """Thompson part metric between two SPD matrices.

    Zero only for (numerically) equal matrices; raises NotPositiveDefinite
    when A or B is not, or when ``B^(-1/2) A B^(-1/2)`` has a non-positive or
    non-finite eigenvalue.
    """
    b, a, k, _, _, lam, _ = _whitened_pair(b, a)
    if np.array_equal(a, b):
        return 0.0
    # the spectrum of B^(-1/2) 2^k A B^(-1/2) is 2^k times the one sought
    return _log_spread(lam[0], -k * math.log(2.0))


def _log_spread(w, log_ratio=0.0) -> float:
    """``d(A, B)`` from the spectrum ``c w`` of ``B^(-1/2) A B^(-1/2)``: ``max |log c + log w_i|``.

    ``log_ratio`` is ``log c``, a scale taken out of the operands before whitening.
    Raises NotPositiveDefinite unless every w_i is positive and finite.
    """
    w = np.asarray(w, dtype=float)
    if not np.all(np.isfinite(w) & (w > 0.0)):
        raise NotPositiveDefinite(f"spectrum {w} is not positive and finite")
    # max(log w_max, -log w_min) == max |log w_i| for positive spectra
    return float(np.max(np.abs(log_ratio + np.log(w))))


def contraction_factor_affine(a: float, b: float, r: float) -> float:
    """Contraction factor of ``X -> aA + bX`` on a Thompson ball of radius r.

    Returns ``log((b e^{3r} + a) / (b e^r + a)) / (2r)``, which depends on a and b
    only through ``b/a``: below 1 for positive ``a``, though in floats it rounds to
    1.0 at large r or ``b/a``; tends to 0 as ``b -> 0`` (pure translation).
    """
    if not all(0.0 < v < math.inf for v in (a, b, r)):
        raise DomainError("affine contraction factor needs finite positive a, b, r")
    return min(_affine(a, b, min(r, _R_MAX)), 1.0)


def _log(v):
    # math.log with log 0 = -inf
    return math.log(v) if v > 0.0 else -math.inf


def _log1p_frac(log_p, c):
    # log(1 + p (e^c - 1)) for p in [0, 1] given as log p, in log-sum-exp form: accurate to
    # rounding relative to its value, with no overflow at any finite c (0 for c <= 0)
    return float(np.logaddexp(0.0, log_p + c + _log(-math.expm1(-c))))


def _affine(a, b, r):
    # contraction_factor_affine's formula, unclamped, for a > 0 <= b:
    # log(1 + p (e^(2r) - 1))/(2r) with p = b e^r/(b e^r + a)
    return _log1p_frac(-np.logaddexp(0.0, math.log(a) - _log(b) - r), 2.0 * r) / (2.0 * r)


def contraction_factor_mean(s: float, t: float, r: float) -> float:
    """Contraction factor of the mean iteration ``X -> M_{s,t}(X, A)`` on a radius-r ball.

    Composes the affine factor of the harmonic part with the convex-split
    correction; 0 at ``t = 1`` (the map collapses to the constant ``A``) and
    approaches 1 as ``t -> 0``.
    """
    if not 0.0 <= s <= 1.0:
        raise DomainError(f"s must lie in [0, 1], got {s}")
    if not 0.0 < t <= 1.0:
        raise DomainError(f"t must lie in (0, 1], got {t} (no contraction at t = 0)")
    if not 0.0 < r < math.inf:
        raise DomainError("ball radius must be finite and positive")
    r = min(r, _R_MAX)
    rho1 = _affine(t, 1.0 - t, r)
    # the convex-split correction log((b e^-r + a e^c)/(b e^-r + a)), c = 2r(1 - rho1), for
    # a : b = s(1 - t) : t, is log(1 + q (e^c - 1)) with q = a/(b e^-r + a), 0 at s = 0
    log_q = -np.logaddexp(0.0, math.log(t) - _log(s * (1.0 - t)) - r)
    return min(rho1 + _log1p_frac(log_q, 2.0 * r * (1.0 - rho1)) / (2.0 * r), 1.0)


def contraction_factor_uniform(t: float, r: float) -> float:
    """Upper bound on :func:`contraction_factor_mean` over all s in [0, 1]; at most 1.

    The bound is the factor at s = 1.
    """
    return contraction_factor_mean(1.0, t, r)
