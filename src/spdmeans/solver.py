"""Fixed-point solvers for induced means, power means and the Karcher mean.

The induced mean at parameter t solves ``X = T_t(X)`` where

    T_t(X) = integral X^(1/2) mean_kernel(s, t, X^(-1/2) A X^(-1/2)) X^(1/2) dmu

and the Karcher mean is the decreasing-net limit of those solutions along a
geometric schedule t -> 0, characterized by a vanishing residual

    R(X) = integral X^(1/2) log_kernel(s, X^(-1/2) A X^(-1/2)) X^(1/2) dmu.

Numerically everything leans on the exact algebraic identity

    mean_kernel(s, t, x) = 1 + t * log_kernel(t + s(1 - t), x),

so the update ``T_t(X) - X`` equals ``t * R_t(X)`` with R_t a reparametrized
residual that we evaluate directly, without the catastrophic cancellation of
forming ``T_t(X) - X`` at small t.  Each level is solved by Picard iteration
warmed up into a finite-difference chord-Newton phase; the Newton phase is
what keeps the cost bounded as t shrinks (plain iteration needs O(1/t)
steps, Newton a handful).  The chord Jacobian is reused across levels of
the t-schedule because the scaled residual varies slowly in t.

No extrapolation is applied to the net: each reported level is a genuine
fixed point, the decreasing-net property is checked at every step, and the
limit is taken plainly.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .core import (
    _sym,
    loewner_leq,
    matrix_to_json,
    spectral_sum,
    weighted_arith,
    weighted_harm,
    whitened_eigh,
)
from .errors import DomainError, MonotonicityViolation, NonConvergence, ShapeError
from .measures import PMeasure
from .monotone import log_kernel_grid
from .thompson import distance

# Fixed points are polished until the whitened residual (the Riemannian
# gradient norm of the level objective) also drops below fp_tol; a Thompson
# step alone goes blind at small t where the map contracts by only 1 - O(t).
_NEWTON_DECREASE = 0.7
_PICARD_BEFORE_NEWTON = 8


@dataclass
class SolverConfig:
    """Tolerances and schedule for the fixed-point solvers.

    fp_tol bounds both the Thompson step and the whitened residual at an
    accepted fixed point; lambda_tol stops the t-schedule when successive
    levels are that close in Thompson metric; residual_tol additionally
    keeps the schedule going until the Karcher residual is small.
    """

    fp_tol: float = 1e-12
    max_iters: int = 10000
    t_start: float = 0.5
    t_factor: float = 0.5
    lambda_tol: float = 1e-9
    residual_tol: float = 1e-8

    def __post_init__(self):
        if min(self.fp_tol, self.lambda_tol, self.residual_tol) <= 0.0:
            raise DomainError("tolerances must be positive")
        if not 0.0 < self.t_factor < 1.0:
            raise DomainError("t-schedule factor must lie in (0, 1)")
        if not 0.0 < self.t_start <= 1.0:
            raise DomainError("t_start must lie in (0, 1]")
        if self.max_iters < 1:
            raise DomainError("max_iters must be positive")


@dataclass
class SolverReport:
    """Outcome of a solve.

    mean : converged SPD matrix
    iterations : accepted updates, summed over all levels
    final_step : Thompson distance d(X, T(X)) at the reported mean
    residual_norm : Frobenius norm of the Karcher residual at the mean
    t_trace : [(t, iterations)] per level of the schedule
    """

    mean: np.ndarray
    iterations: int
    final_step: float
    residual_norm: float
    t_trace: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "mean": matrix_to_json(self.mean),
            "iterations": int(self.iterations),
            "final_step": float(self.final_step),
            "residual_norm": float(self.residual_norm),
            "t_trace": [[float(t), int(n)] for t, n in self.t_trace],
        }


# ---------------------------------------------------------------------------
# residual fields
# ---------------------------------------------------------------------------


def _whitened_residual(x, mats, kernel):
    """Residual ``R = X^(1/2) (sum_k Q_k diag(kernel(lam)_k) Q_k.T) X^(1/2)``.

    ``(lam, Q)`` are the stacked spectra of the whitened ``mats``; returns
    ``(R, ||X^(-1/2) R X^(-1/2)||_F)``.
    """
    rs, _, lam, q = whitened_eigh(x, mats)
    acc = spectral_sum(q, kernel(lam))
    return _sym(rs @ acc @ rs), float(np.linalg.norm(acc))


def _level_residual(x, mu: PMeasure, t: float):
    """R_t(X) = (T_t(X) - X)/t evaluated directly; t = 0 gives the Karcher residual."""

    def kernel(lam):
        return np.array([
            w * (nu.weights @ log_kernel_grid(t + nu.nodes * (1.0 - t), lk))
            for (w, _, nu), lk in zip(mu.atoms, lam)
        ])

    return _whitened_residual(x, mu.matrices, kernel)


def karcher_residual(x, mu: PMeasure) -> np.ndarray:
    """Left-hand side of the Karcher equation at X.

    ``integral X^(1/2) log_kernel(s, X^(-1/2) A X^(-1/2)) X^(1/2) dmu``;
    symmetric, and zero exactly at the Karcher mean of the measure.
    """
    if x.shape != (mu.dim, mu.dim):
        raise ShapeError("matrix and measure dimensions differ")
    return _level_residual(x, mu, 0.0)[0]


def iteration_map(x, t: float, mu: PMeasure) -> np.ndarray:
    """One step of the induced-mean iteration.

    ``T_t(X) = integral X^(1/2) mean_kernel(s, t, X^(-1/2) A X^(-1/2)) X^(1/2) dmu``,
    SPD and monotone in X.  ``t = 1`` collapses to the weighted arithmetic
    mean of the atoms regardless of X.
    """
    if not 0.0 < t <= 1.0:
        raise DomainError(f"t must lie in (0, 1], got {t}")
    if x.shape != (mu.dim, mu.dim):
        raise ShapeError("matrix and measure dimensions differ")
    r, _ = _level_residual(x, mu, t)
    return _sym(x + t * r)


# ---------------------------------------------------------------------------
# hybrid Picard / chord-Newton fixed-point engine
# ---------------------------------------------------------------------------


def _sym_basis(n):
    # orthonormal basis of the symmetric matrices: diagonal units, then
    # (E_ij + E_ji)/sqrt(2) for i < j in row-major order
    pairs = [(i, i) for i in range(n)] + [(i, j) for i in range(n) for j in range(i + 1, n)]
    basis = np.zeros((len(pairs), n, n))
    for k, (i, j) in enumerate(pairs):
        basis[k, i, j] = basis[k, j, i] = 1.0 if i == j else 1.0 / math.sqrt(2.0)
    return basis


class _Chord:
    """Finite-difference Jacobian of a residual field, reused across levels."""

    def __init__(self, n):
        self.basis = _sym_basis(n)
        self.flat = self.basis.reshape(len(self.basis), -1)
        self.lu = None
        self.evals = 0

    def assemble(self, residual, x):
        # central differences with a step relative to X, so that the probes
        # X +- hE stay in the cone at every scale
        h = 1e-6 * float(np.linalg.norm(x))
        diffs = np.empty_like(self.flat)
        for k, e in enumerate(self.basis):
            rp, _ = residual(_sym(x + h * e))
            rm, _ = residual(_sym(x - h * e))
            self.evals += 2
            diffs[k] = ((rp - rm) / (2.0 * h)).ravel()
        try:
            self.lu = sla.lu_factor(self.flat @ diffs.T)
        except (ValueError, sla.LinAlgError):
            self.lu = None

    def step(self, r):
        delta = sla.lu_solve(self.lu, -(self.flat @ r.ravel()))
        return (delta @ self.flat).reshape(r.shape)


def _thompson_step(x, r, t):
    # d(X, X + tR) from the whitened residual spectrum
    arg = 1.0 + t * whitened_eigh(x, r[None])[2]
    if np.any(arg <= 0.0):
        return float("inf")
    return float(np.max(np.abs(np.log(arg))))


def _solve_level(residual, t, x0, cfg, chord, iters_used):
    """Drive ``residual(x) ~ 0`` for the level map ``x -> x + t * residual(x)``.

    Returns ``(x, iters, final_step)``.  Convergence requires both the
    Thompson step of the map and the whitened residual norm to fall below
    ``cfg.fp_tol``.  Raises NonConvergence on budget exhaustion.
    """
    x = x0
    r, wnorm = residual(x)
    iters = 0
    picard = 0
    fresh = False
    best = wnorm
    stall = 0
    while True:
        if wnorm <= cfg.fp_tol:
            break
        # Progress tracking: when the residual has hit its floating-point
        # floor for this level, accept if the Thompson step criterion holds.
        if wnorm > 0.995 * best:
            stall += 1
            if stall >= 12:
                if t * wnorm <= cfg.fp_tol and wnorm <= 1e4 * cfg.fp_tol:
                    break
                raise NonConvergence(
                    f"fixed-point solve at t={t:g} stagnated at whitened "
                    f"residual {wnorm:.3e}",
                    final_step=_thompson_step(x, r, t),
                    iterations=iters_used + iters,
                )
        else:
            best = wnorm
            stall = 0
        if iters_used + iters >= cfg.max_iters:
            raise NonConvergence(
                f"fixed-point solve at t={t:g} exhausted {cfg.max_iters} iterations",
                final_step=_thompson_step(x, r, t),
                iterations=iters_used + iters,
            )
        accepted = False
        if chord.lu is not None:
            dx = chord.step(r)
            xn = _sym(x + dx)
            if np.linalg.eigvalsh(xn)[0] > 0.0:
                rn, wn = residual(xn)
                chord.evals += 1
                if wn <= _NEWTON_DECREASE * wnorm or wn <= cfg.fp_tol:
                    x, r, wnorm = xn, rn, wn
                    accepted = True
                    fresh = False
            if not accepted:
                if fresh:
                    chord.lu = None  # fall back to Picard from this iterate
                    fresh = False
                    picard = 0
                else:
                    chord.assemble(residual, x)
                    fresh = True
                    continue
        if not accepted:
            xn = _sym(x + t * r)  # exact Picard update of the level map
            rn, wn = residual(xn)
            chord.evals += 1
            x, r, wnorm = xn, rn, wn
            picard += 1
            if picard >= _PICARD_BEFORE_NEWTON and chord.lu is None:
                chord.assemble(residual, x)
                fresh = True
                picard = 0
        iters += 1
    return x, iters, _thompson_step(x, r, t)


def induced_mean(t: float, mu: PMeasure, cfg: SolverConfig = None) -> SolverReport:
    """Solve the induced-mean equation ``X = T_t(X)`` for t in (0, 1].

    Starts from the weighted arithmetic mean of the atoms, which lies in
    the invariant order interval of the iteration, and converges to the
    unique fixed point.  The reported mean satisfies
    ``distance(X, iteration_map(X, t, mu)) <= 10 * fp_tol``.
    """
    if not 0.0 < t <= 1.0:
        raise DomainError(f"t must lie in (0, 1], got {t}")
    cfg = cfg or SolverConfig()
    x0 = weighted_arith(mu.matrix_pairs())
    chord = _Chord(mu.dim)
    residual = lambda y: _level_residual(y, mu, t)
    x, iters, final_step = _solve_level(residual, t, x0, cfg, chord, 0)
    rnorm = float(np.linalg.norm(karcher_residual(x, mu)))
    return SolverReport(
        mean=x,
        iterations=iters,
        final_step=final_step,
        residual_norm=rnorm,
        t_trace=[(t, iters)],
    )


def power_mean(t: float, sigma, cfg: SolverConfig = None) -> SolverReport:
    """Solve the power-mean equation ``X = sum_i w_i X #_t A_i`` for t in (0, 1].

    ``t = 1`` gives the weighted arithmetic mean.  The reported
    residual_norm is the Frobenius norm of the generalized residual
    ``sum_i w_i X^(1/2) ((W_i^t - I)/t) X^(1/2)`` at the solution.
    """
    if not 0.0 < t <= 1.0:
        raise DomainError(f"t must lie in (0, 1], got {t}")
    cfg = cfg or SolverConfig()
    sigma = [(float(w), np.asarray(m, dtype=float)) for w, m in sigma]
    x0 = weighted_arith(sigma)
    w = np.array([wk for wk, _ in sigma])[:, None]
    mats = np.array([m for _, m in sigma])

    def kernel(lam):
        return w * np.expm1(t * np.log(lam)) / t  # closed form of (x^t - 1)/t

    chord = _Chord(x0.shape[0])
    residual = lambda y: _whitened_residual(y, mats, kernel)
    x, iters, final_step = _solve_level(residual, t, x0, cfg, chord, 0)
    rnorm = residual(x)[0]
    return SolverReport(
        mean=x,
        iterations=iters,
        final_step=final_step,
        residual_norm=float(np.linalg.norm(rnorm)),
        t_trace=[(t, iters)],
    )


def lambda_mean(mu: PMeasure, cfg: SolverConfig = None) -> SolverReport:
    """Karcher mean of the measure: the t -> 0 limit of the induced means.

    Solves the induced mean along the geometric schedule
    ``t_l = t_start * t_factor**l``, warm-starting each level from the
    previous one, and stops once successive levels are within lambda_tol in
    Thompson metric and the Karcher residual is below residual_tol.  The
    levels must decrease in the Loewner order (checked at every step; a
    violation beyond 1e-9 signals a numerics bug, not a modelling error).
    """
    cfg = cfg or SolverConfig()
    x = weighted_arith(mu.matrix_pairs())
    chord = _Chord(mu.dim)
    t = cfg.t_start
    prev = None
    trace = []
    total = 0
    final_step = 0.0
    rnorm = float("inf")
    for _ in range(200):
        residual = lambda y: _level_residual(y, mu, t)
        x, iters, final_step = _solve_level(residual, t, x, cfg, chord, total)
        total += iters
        trace.append((t, iters))
        if prev is not None:
            if not loewner_leq(x, prev, 1e-9):
                raise MonotonicityViolation(
                    f"induced means failed to decrease from t={t / cfg.t_factor:g} to t={t:g}"
                )
            gap = distance(prev, x)
            rnorm = float(np.linalg.norm(karcher_residual(x, mu)))
            if gap <= cfg.lambda_tol and rnorm <= cfg.residual_tol:
                break
        prev = x
        t *= cfg.t_factor
    else:
        raise NonConvergence(
            "t-schedule exhausted 200 levels without meeting lambda_tol",
            final_step=final_step,
            iterations=total,
        )
    return SolverReport(
        mean=x,
        iterations=total,
        final_step=final_step,
        residual_norm=rnorm,
        t_trace=trace,
    )


def sandwich_check(x, mu: PMeasure, tol: float = 1e-9) -> bool:
    """True iff harmonic mean <= X <= arithmetic mean of the atoms (Loewner, scaled tol)."""
    if x.shape != (mu.dim, mu.dim):
        raise ShapeError("matrix and measure dimensions differ")
    pairs = mu.matrix_pairs()
    return loewner_leq(weighted_harm(pairs), x, tol) and loewner_leq(
        x, weighted_arith(pairs), tol
    )
