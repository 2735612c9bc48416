"""Log-determinant divergences, their Riemannian gradient, and a descent oracle.

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

The gradient-descent minimizer serves as an independent route to the same
point the t-schedule computes: the two must agree to solver tolerance.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from .core import _sym, geometric_mean, spectral_sum, sqrt_pair, weighted_arith, whitened_eigh
from .errors import DomainError, NonConvergence, ShapeError
from .measures import PMeasure
from .solver import SolverReport, karcher_residual
from .thompson import distance

log = logging.getLogger(__name__)

# 1/(s(1-s)) overflows the useful range below this margin; dispatch to the
# closed-form endpoint divergences instead.
_ENDPOINT = 1e-8


@dataclass
class RgdConfig:
    """Line-search and termination settings for the descent oracle.

    grad_tol bounds the gradient's scale-invariant norm ``||X^(-1/2) R X^(-1/2)||_F``.
    """

    step0: float = 1.0
    armijo_c: float = 1e-4
    backtrack: float = 0.5
    grad_tol: float = 1e-9
    max_iters: int = 5000

    def __post_init__(self):
        if self.step0 <= 0.0:
            raise DomainError("initial step must be positive")
        if not 0.0 < self.backtrack < 1.0:
            raise DomainError("backtrack factor must lie in (0, 1)")
        if self.grad_tol <= 0.0 or self.armijo_c <= 0.0:
            raise DomainError("tolerances must be positive")


def _eig_divergence(s, w):
    """Divergence terms at nodes s (m,) and eigenvalues w, (n,) or one row (m, n) per node."""
    s = np.asarray(s, dtype=float)[:, None]
    logw = np.log(w)
    with np.errstate(divide="ignore", invalid="ignore"):
        mid = (np.log((1.0 - s) * w + s) - (1.0 - s) * logw) / (s * (1.0 - s))
    return np.where(s <= _ENDPOINT, 1.0 / w - 1.0 + logw,
                    np.where(s >= 1.0 - _ENDPOINT, w - 1.0 - logw, mid))


def logdet_divergence(x, a, s: float) -> float:
    """Divergence ``LD_s(X, A)`` for s in [0, 1]; nonnegative, zero iff X = A."""
    if x.shape != a.shape:
        raise ShapeError("operands must share dimensions")
    if not 0.0 <= s <= 1.0:
        raise DomainError(f"divergence parameter must lie in [0, 1], got {s}")
    return float(np.sum(_eig_divergence([s], whitened_eigh(x, a[None])[2][0])))


def objective(x, mu: PMeasure) -> float:
    """Integrated divergence ``sum_k w_k int LD_s(X, A_k) d nu_k(s)``; nonnegative."""
    if x.shape != (mu.dim, mu.dim):
        raise ShapeError("matrix and measure dimensions differ")
    lam = whitened_eigh(x, mu.matrices)[2]
    return float(mu.node_weights @ np.sum(_eig_divergence(mu.nodes, lam[mu.owner]), axis=1))


def riemannian_gradient(x, mu: PMeasure) -> np.ndarray:
    """Gradient of :func:`objective` at X under the affine-invariant metric.

    Equal to the negated Karcher residual, computed through the same code
    path so the critical-point equation and the fixed-point solvers can
    never disagree on signs.
    """
    return -karcher_residual(x, mu)


def minimize_divergence(mu: PMeasure, cfg: RgdConfig = None, on_step=None) -> SolverReport:
    """Riemannian gradient descent on the integrated divergence.

    Steps along the negated gradient through the exponential retraction
    ``X -> X^(1/2) exp(eta D) X^(1/2)`` with Armijo backtracking on the
    objective, starting from the weighted arithmetic mean.  Once the
    predicted Armijo decrease falls below floating-point resolution of the
    objective, acceptance switches to a monotone decrease of the gradient
    norm, which stays resolvable down to the default tolerance.

    Terminates when the metric norm of the gradient drops below
    ``grad_tol`` (residual_norm reports its Frobenius norm); the result is
    the unique minimizer, the same point the t-schedule route converges
    to.  ``on_step(x, f, gnorm)``, when given, is called after every
    accepted step.
    """
    cfg = cfg or RgdConfig()
    x = weighted_arith(mu.matrix_pairs())
    f = objective(x, mu)
    iters = 0
    final_step = 0.0
    r = karcher_residual(x, mu)  # equals -gradient
    while True:
        gnorm = float(np.linalg.norm(r))
        # whiten the descent direction once; each trial step then only
        # exponentiates its eigenvalues
        rs, _, lam, q = whitened_eigh(x, r[None])
        gsq = float(np.sum(lam * lam))  # metric norm^2 of the gradient
        if math.sqrt(gsq) <= cfg.grad_tol:
            break
        if iters >= cfg.max_iters:
            raise NonConvergence(
                f"gradient descent exhausted {cfg.max_iters} iterations "
                f"(gradient norm {gnorm:.3e})",
                final_step=final_step,
                iterations=iters,
            )
        armijo_floor = 16.0 * np.finfo(float).eps * (1.0 + abs(f))
        eta = cfg.step0
        accepted = False
        while eta >= 1e-14:
            xn = _sym(rs @ spectral_sum(q, np.exp(eta * lam)) @ rs)
            rn = None
            predicted = cfg.armijo_c * eta * gsq
            if predicted > armijo_floor:
                fn = objective(xn, mu)
                if fn <= f - predicted:
                    accepted = True
                    break
            else:
                # objective differences are below noise; accept on gradient decrease
                rn = karcher_residual(xn, mu)
                if np.linalg.norm(rn) < gnorm:
                    fn = objective(xn, mu)
                    accepted = True
                    break
            eta *= cfg.backtrack
        if not accepted:
            raise NonConvergence(
                f"line search stalled at gradient norm {gnorm:.3e}",
                final_step=final_step,
                iterations=iters,
            )
        final_step = distance(xn, x)
        x, f = xn, fn
        r = karcher_residual(x, mu) if rn is None else rn
        iters += 1
        if on_step is not None:
            on_step(x, f, float(np.linalg.norm(r)))
    return SolverReport(
        mean=x,
        iterations=iters,
        final_step=final_step,
        residual_norm=gnorm,
        t_trace=[],
    )


def geodesic_convexity_check(mu: PMeasure, trials: int, seed: int = 0) -> bool:
    """Spot-check strict convexity of the objective along random geodesics.

    Draws random SPD endpoint pairs scaled around the measure's arithmetic
    mean and verifies the chord inequality at tau in {1/4, 1/2, 3/4} with a
    1e-12 relative slack (strictly below the chord for distinct endpoints).
    Returns False and logs the first counterexample found.
    """
    rng = np.random.default_rng(seed)
    n = mu.dim
    center = weighted_arith(mu.matrix_pairs())
    rc, _ = sqrt_pair(center)

    def sample():
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        d = np.exp(rng.uniform(math.log(0.25), math.log(4.0), n))
        return _sym(rc @ ((q * d) @ q.T) @ rc)

    for trial in range(trials):
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
