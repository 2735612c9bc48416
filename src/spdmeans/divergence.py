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

The measure integrates these terms (``mu.divergence``); this module whitens X.
The Riemannian gradient of the integrated objective under the affine-invariant
metric is the negated Karcher residual; the gradient code path *is* the residual
code path, so there is no sign or convention drift between the minimizer below
and the fixed-point solvers.

The minimizer solves that critical-point equation with the fixed-point
solvers' damped Newton engine at t = 0, an independent route to the point
the t-schedule computes: the two must agree to solver tolerance.  The objective is
strictly geodesically convex, so its critical point is the global minimizer; verify's
``divergence.geodesic_convexity`` row checks it along random geodesics.
"""

import numpy as np

from .core import _real
from .errors import DomainError
from .measures import PMeasure, product_measure
from .monotone import SMeasure
from .solver import SolverConfig, SolverReport, _solve, _Visit, karcher_residual


def logdet_divergence(x, a, s: float) -> float:
    """Divergence ``LD_s(X, A)`` for s in [0, 1]; nonnegative, zero iff X = A.

    The :func:`objective` of the one-atom measure ``dirac(s) x delta_A``.
    """
    if not 0.0 <= _real(s, "divergence parameter", DomainError) <= 1.0:
        raise DomainError(f"divergence parameter must lie in [0, 1], got {s}")
    return objective(x, product_measure(SMeasure.dirac(s), [(1.0, a)]))


def objective(x, mu: PMeasure) -> float:
    """Integrated divergence ``sum_k w_k int LD_s(X, A_k) d nu_k(s)``; nonnegative."""
    return mu.divergence(_Visit.whiten(x, (mu.matrices, mu.factors), gate="caller").lam)


def riemannian_gradient(x, mu: PMeasure) -> np.ndarray:
    """Gradient of :func:`objective` at X under the affine-invariant metric.

    The negated Karcher residual, through the same code path (module docstring).
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
        lambda visit: on_step(visit.x, mu.divergence(visit.lam), visit.gnorm))
    return _solve(mu.weights, mu.matrices, mu.factors, mu.kernels(0.0), 0.0, cfg.grad_tol,
                  cfg.max_iters, on_step=hook)

