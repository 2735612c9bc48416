"""Log-determinant divergences, their Riemannian gradient, and a Newton minimizer.

The one-parameter divergence between SPD matrices is the trace gap between
the log of the arithmetic path and the log of the geometric path,

    LD_s(X, A) = (tr log((1-s)A + sX) - tr log(X #_(1-s) A)) / (s(1-s)),

nonnegative and zero only at X = A.  Both traces reduce to sums over the
eigenvalues w of X^(-1/2) A X^(-1/2):

    LD_s(X, A) = sum_i [log((1-s) w_i + s) - (1-s) log w_i] / (s(1-s)),

because the geometric path's log-determinant interpolates the endpoints'
log-determinants linearly.  The endpoints are the limits

    LD_1 = sum (w - 1 - log w),     LD_0 = sum (1/w - 1 + log w).

The Riemannian gradient of the integrated objective under the
affine-invariant metric is the negated Karcher residual; the gradient code
path *is* the residual code path, so there is no sign or convention drift
between the minimizer below and the fixed-point solvers.

The minimizer solves that critical-point equation with the fixed-point
solvers' damped Newton engine at t = 0, an independent route to the point
the t-schedule computes: the two must agree to solver tolerance.  It takes
its settings from the solvers' SolverConfig (grad_tol, max_iters).
"""

import logging
import math

import numpy as np

from .core import (_arith, _is_count, geometric_mean, spd_stack, spectral_sum, sqrt_pair,
                   whitened_eigh)
from .errors import DomainError, NotPositiveDefinite
from .measures import PMeasure
from .solver import (SolverConfig, SolverReport, _gate_point, _level_kernels, _solve,
                     karcher_residual)
from .thompson import distance

log = logging.getLogger(__name__)

# 1/(s(1-s)) overflows the useful range below this margin; dispatch to the
# closed-form endpoint divergences instead.
_ENDPOINT = 1e-8


def _eig_divergence(s, w):
    """Divergence terms at nodes s (m,) and eigenvalues w, (n,) or one row (m, n) per node.

    Raises NotPositiveDefinite unless every w is positive (a NaN is not).
    """
    if not np.all(w > 0.0):
        raise NotPositiveDefinite("divergence of a non-positive matrix")
    s = np.asarray(s, dtype=float)[:, None]
    logw = np.log(w)
    with np.errstate(divide="ignore", invalid="ignore"):
        mid = (np.log((1.0 - s) * w + s) - (1.0 - s) * logw) / (s * (1.0 - s))
    return np.where(s <= _ENDPOINT, 1.0 / w - 1.0 + logw,
                    np.where(s >= 1.0 - _ENDPOINT, w - 1.0 - logw, mid))


def logdet_divergence(x, a, s: float) -> float:
    """Divergence ``LD_s(X, A)`` for s in [0, 1]; nonnegative, zero iff X = A."""
    x, a = spd_stack([x, a])
    if not 0.0 <= s <= 1.0:
        raise DomainError(f"divergence parameter must lie in [0, 1], got {s}")
    return float(np.sum(_eig_divergence([s], whitened_eigh(x, a[None])[2][0])))


def objective(x, mu: PMeasure) -> float:
    """Integrated divergence ``sum_k w_k int LD_s(X, A_k) d nu_k(s)``; nonnegative."""
    return _objective(whitened_eigh(_gate_point(x, mu), mu.matrices)[2], mu)


def _objective(lam, mu: PMeasure) -> float:
    """:func:`objective` from the whitened spectra ``lam`` (k, n) of the atoms at X."""
    return float(mu.node_weights @ np.sum(_eig_divergence(mu.nodes, lam[mu.owner]), axis=1))


def riemannian_gradient(x, mu: PMeasure) -> np.ndarray:
    """Gradient of :func:`objective` at X under the affine-invariant metric.

    Equal to the negated Karcher residual, computed through the same code
    path so the critical-point equation and the fixed-point solvers can
    never disagree on signs.
    """
    return -karcher_residual(x, mu)


def minimize_divergence(mu: PMeasure, cfg: SolverConfig = None, on_step=None) -> SolverReport:
    """Damped Riemannian Newton on the integrated divergence.

    Runs the fixed-point solvers' Newton engine on the t = 0 (Karcher) equation
    from the weighted arithmetic mean, halving each step's length eta until the
    trial point is SPD and its whitened gradient norm is at most ``1 - 1e-4 eta``
    times the current one; along a Newton step that norm falls like ``1 - eta``, so
    the rule serves down to ``cfg.grad_tol``, within ``cfg.max_iters`` steps.  Returns
    the unique minimizer; residual_norm is the whitened gradient norm
    ``||X^(-1/2) R X^(-1/2)||_F`` that grad_tol bounds.  ``on_step(x, f, gnorm)`` is
    called after every step with that whitened norm; the objective f is evaluated
    only for it, from the step's cached whitened spectra.
    """
    cfg = cfg or SolverConfig()
    hook = None if on_step is None else (
        lambda visit: on_step(visit[0][0], _objective(visit[0][1][2], mu), visit[1]))
    return _solve(mu.weights, mu.matrices, _level_kernels(mu, 0.0), 0.0, cfg.grad_tol,
                  cfg.max_iters, on_step=hook)


def geodesic_convexity_check(mu: PMeasure, trials: int, seed: int = 0) -> bool:
    """Spot-check strict convexity of the objective along random geodesics.

    Draws random SPD endpoint pairs scaled around the measure's arithmetic
    mean and verifies the chord inequality at tau in {1/4, 1/2, 3/4} with a
    1e-12 relative slack (strictly below the chord for distinct endpoints).
    Returns False and logs the first counterexample found; DomainError unless
    ``trials`` is a whole number of at least 1 (zero trials would check nothing).
    """
    if not _is_count(trials):
        raise DomainError(f"convexity check needs at least one trial, got {trials!r}")
    rng = np.random.default_rng(seed)
    n = mu.dim
    center = _arith(mu.weights, mu.matrices)
    rc, _ = sqrt_pair(center)

    def sample():
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        d = np.exp(rng.uniform(math.log(0.25), math.log(4.0), n))
        return spectral_sum(q[None], d[None], rc)

    for trial in range(int(trials)):
        g0, g1 = sample(), sample()
        f0, f1 = objective(g0, mu), objective(g1, mu)
        distinct = distance(g0, g1) > 1e-8
        for tau in (0.25, 0.5, 0.75):
            fm = objective(geometric_mean(g0, g1, tau), mu)
            chord = (1.0 - tau) * f0 + tau * f1
            slack = 1e-12 * (1.0 + abs(chord))
            violated = fm >= chord + slack if distinct else fm > chord + slack
            if violated:
                log.warning(
                    "convexity violation at trial %d tau %.2f: F(geo)=%.17g chord=%.17g",
                    trial, tau, fm, chord,
                )
                return False
    return True
