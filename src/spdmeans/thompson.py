"""Thompson part metric on the SPD cone and explicit contraction factors.

The metric is ``d(A, B) = max(log M(A/B), log M(B/A))`` with
``M(A/B) = inf{alpha : A <= alpha B}``.  It is computed from the spectrum of
the symmetric similarity ``B^(-1/2) A B^(-1/2)`` (never via a generalized
eigenproblem) by :func:`spdmeans.core.whitened_eigh`, which keeps symmetry
exact.

The contraction factors quantify how fast the affine map ``B -> aA + bB``
and the two-parameter mean iteration contract Thompson balls of radius
``r`` around the anchor matrix; they are strictly below one.
"""

import math

import numpy as np

from .core import spd_stack, whitened_eigh
from .errors import DomainError, NotPositiveDefinite


def min_scaling(a, b) -> float:
    """Smallest ``alpha`` with ``A <= alpha B``: the top eigenvalue of ``B^(-1/2) A B^(-1/2)``."""
    a, b = spd_stack([a, b])
    return float(whitened_eigh(b, a[None])[2][0, -1])


def distance(a, b) -> float:
    """Thompson part metric between two SPD matrices.

    Zero only for (numerically) equal matrices; raises NotPositiveDefinite
    when A or B is not, or when ``B^(-1/2) A B^(-1/2)`` has a non-positive or
    non-finite eigenvalue.
    """
    a, b = spd_stack([a, b])
    return 0.0 if np.array_equal(a, b) else log_spread(whitened_eigh(b, a[None])[2][0])


def log_spread(w) -> float:
    """``d(A, B)`` from the spectrum w of ``B^(-1/2) A B^(-1/2)``: ``max |log w_i|``.

    Raises NotPositiveDefinite unless every w_i is positive and finite.
    """
    w = np.asarray(w, dtype=float)
    if not np.all(np.isfinite(w) & (w > 0.0)):
        raise NotPositiveDefinite(f"spectrum {w} is not positive and finite")
    # max(log w_max, -log w_min) == max |log w_i| for positive spectra
    return float(np.max(np.abs(np.log(w))))


def contraction_factor_affine(a: float, b: float, r: float) -> float:
    """Contraction factor of ``X -> aA + bX`` on a Thompson ball of radius r.

    Returns ``log((b e^{3r} + a) / (b e^r + a)) / (2r)``, strictly below 1
    for positive ``a``; tends to 0 as ``b -> 0`` (pure translation).
    """
    if not (a > 0.0 and b > 0.0 and r > 0.0):
        raise DomainError("affine contraction factor needs positive a, b, r")
    rho = math.log((b * math.exp(3.0 * r) + a) / (b * math.exp(r) + a)) / (2.0 * r)
    return min(rho, 1.0)


def _rho1(t, r):
    return math.log(
        (math.exp(3.0 * r) * (1.0 - t) + t) / (math.exp(r) * (1.0 - t) + t)
    ) / (2.0 * r)


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
    if not r > 0.0:
        raise DomainError("ball radius must be positive")
    rho1 = _rho1(t, r)
    den = t + s * (1.0 - t)
    a = s * (1.0 - t) / den
    b = t / den
    rho = rho1 + math.log(
        (b * math.exp(-r) + a * math.exp(2.0 * r * (1.0 - rho1)))
        / (b * math.exp(-r) + a)
    ) / (2.0 * r)
    return min(rho, 1.0)


def contraction_factor_uniform(t: float, r: float) -> float:
    """Upper bound on :func:`contraction_factor_mean` over all s in [0, 1]; strictly below 1."""
    if not 0.0 < t <= 1.0:
        raise DomainError(f"t must lie in (0, 1], got {t}")
    if not r > 0.0:
        raise DomainError("ball radius must be positive")
    rho1 = _rho1(t, r)
    rho = rho1 + math.log(
        (t * math.exp(-r) + (1.0 - t) * math.exp(2.0 * r * (1.0 - rho1)))
        / (t * math.exp(-r) + (1.0 - t))
    ) / (2.0 * r)
    return min(rho, 1.0)
