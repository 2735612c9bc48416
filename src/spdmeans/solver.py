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
forming ``T_t(X) - X`` at small t.  Every iteration tries an exact Newton
step in whitened coordinates ``X^(1/2)(I + E)X^(1/2)``, its Jacobian built in
closed form from the kernels' divided differences (Daleckii-Krein; Higham,
Functions of Matrices, 2008, 3.2), and falls back to the Picard update.
Newton keeps the cost bounded as t shrinks (plain iteration needs O(1/t)
steps, Newton a handful) and, being congruence-equivariant, any scale of X.

No extrapolation is applied to the net: each reported level is a genuine
fixed point, the decreasing-net property is checked at every step, and the
limit is taken plainly.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

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
from .thompson import distance

# Fixed points are polished until the whitened residual (the Riemannian
# gradient norm of the level objective) also drops below fp_tol; a Thompson
# step alone goes blind at small t where the map contracts by only 1 - O(t).
_NEWTON_DECREASE = 0.7


@dataclass
class SolverConfig:
    """Tolerances and schedule for the fixed-point solvers.

    fp_tol bounds both the Thompson step and the whitened residual at an
    accepted fixed point; lambda_tol stops the t-schedule when successive
    levels are that close in Thompson metric; residual_tol additionally
    keeps the schedule going until the whitened Karcher residual
    ``||X^(-1/2) R X^(-1/2)||_F`` is small.  No test depends on scale.
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
    """Residual ``R = X^(1/2) G X^(1/2)``, ``G = sum_k Q_k diag(kernel(lam)_k) Q_k.T``.

    ``(lam, Q)`` are the stacked spectra of the whitened ``mats``; returns ``(R,
    ||G||_F, spec)``, the Newton step's data ``spec = (X^(1/2), lam, Q, kernel(lam), G)``.
    """
    rs, _, lam, q = whitened_eigh(x, mats)
    phi = kernel(lam)
    acc = spectral_sum(q, phi)
    return _sym(rs @ acc @ rs), float(np.linalg.norm(acc)), (rs, lam, q, phi, acc)


def _level_kernels(mu: PMeasure, t: float):
    """Per-atom kernel of R_t (t = 0: Karcher) and its divided differences.

    Atom k is ``w_k sum_m omega_m (x - 1)/(a_m x + s_m)``, ``s_m = t + s(1 - t)``,
    ``a_m = 1 - s_m``; each term's divided difference is ``1/((a_m x + s_m)(a_m y + s_m))``.
    Both are evaluated on the measure's flat quadrature and summed per atom.
    """
    s = (t + mu.nodes * (1.0 - t))[:, None]

    def kernel(lam):
        x = lam[mu.owner]
        return np.add.reduceat(mu.node_weights[:, None] * (x - 1.0) / ((1.0 - s) * x + s),
                               mu.starts)

    def divdiff(lam):
        v = 1.0 / ((1.0 - s) * lam[mu.owner] + s)
        return np.add.reduceat((mu.node_weights[:, None] * v)[:, :, None] * v[:, None, :],
                               mu.starts)

    return kernel, divdiff


def _power_kernels(w, t: float):
    """Closed-form power kernel ``w_k (x^t - 1)/t`` and its divided differences.

    ``(x^t - y^t)/(t(x - y)) = y^(t-1) expm1(t(u - v))/(t expm1(u - v))`` with
    ``u, v = log x, log y``, and ``y^(t-1)`` where ``u = v``.
    """
    def kernel(lam):
        return w[:, None] * np.expm1(t * np.log(lam)) / t

    def divdiff(lam):
        u = np.log(lam)
        d = u[:, :, None] - u[:, None, :]
        with np.errstate(invalid="ignore"):
            ratio = np.where(d == 0.0, 1.0, np.expm1(t * d) / (t * np.expm1(d)))
        return w[:, None, None] * np.exp((t - 1.0) * u)[:, None, :] * ratio

    return kernel, divdiff


def karcher_residual(x, mu: PMeasure) -> np.ndarray:
    """Left-hand side of the Karcher equation at X.

    ``integral X^(1/2) log_kernel(s, X^(-1/2) A X^(-1/2)) X^(1/2) dmu``;
    symmetric, and zero exactly at the Karcher mean of the measure.
    """
    if x.shape != (mu.dim, mu.dim):
        raise ShapeError("matrix and measure dimensions differ")
    return _whitened_residual(x, mu.matrices, _level_kernels(mu, 0.0)[0])[0]


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
    r = _whitened_residual(x, mu.matrices, _level_kernels(mu, t)[0])[0]
    return _sym(x + t * r)  # R_t(X) = (T_t(X) - X)/t evaluated directly


# ---------------------------------------------------------------------------
# Picard / whitened-Newton fixed-point engine
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _sym_basis(n):
    # orthonormal basis of the symmetric matrices: E_ii and (E_ij + E_ji)/sqrt(2)
    i, j = np.triu_indices(n)
    k = np.arange(len(i))
    basis = np.zeros((len(i), n, n))
    basis[k, i, j] = basis[k, j, i] = np.where(i == j, 1.0, math.sqrt(0.5))
    return basis


def _whitened_jacobian(spec, divdiff):
    """Jacobian of G along ``X^(1/2)(I + E)X^(1/2)`` on the symmetric basis.

    Daleckii-Krein: ``dG[E] = sum_k Q_k (Gamma_k o Q_k.T E Q_k) Q_k.T`` with
    ``Gamma_k,ij = (phi_i + phi_j)/2 - (lam_i + lam_j)/2 * phi^[1](lam_i, lam_j)``.
    Returns ``(J, B)`` with B the flattened basis and ``J[a, b] = <B_a, dG[B_b]>``.
    """
    _, lam, q, phi, _ = spec
    k, n = lam.shape
    gamma = 0.5 * (phi[:, :, None] + phi[:, None, :]
                   - (lam[:, :, None] + lam[:, None, :]) * divdiff(lam))
    basis = _sym_basis(n)
    # P_k[a] = Q_k.T B_a Q_k, so that J = sum_k P_k diag(Gamma_k) P_k.T
    proj = (q.swapaxes(1, 2)[:, None] @ basis @ q[:, None]).reshape(k, len(basis), -1)
    return spectral_sum(proj, gamma.reshape(k, -1)), basis.reshape(len(basis), -1)


def _newton_point(x, spec, divdiff):
    """Newton trial ``X + X^(1/2) E X^(1/2)``, ``dG[E] = -G``; None if singular or not PD."""
    rs, acc = spec[0], spec[4]
    jac, flat = _whitened_jacobian(spec, divdiff)
    lu = sla.lu_factor(jac, check_finite=False)
    e = (sla.lu_solve(lu, -(flat @ acc.ravel()), check_finite=False) @ flat).reshape(acc.shape)
    if not np.all(np.isfinite(e)):
        return None
    xn = _sym(x + rs @ e @ rs)
    return xn if np.linalg.eigvalsh(xn)[0] > 0.0 else None


def _thompson_step(x, r, t):
    # d(X, X + tR) from the whitened residual spectrum
    arg = 1.0 + t * whitened_eigh(x, r[None])[2]
    if np.any(arg <= 0.0):
        return float("inf")
    return float(np.max(np.abs(np.log(arg))))


def _solve_level(mats, kernels, t, x0, cfg, iters_used):
    """Drive the residual to zero for the level map ``x -> x + t * R(x)``.

    Each iteration tries the Newton step and falls back to the exact Picard
    update if that step fails or its whitened residual misses _NEWTON_DECREASE.
    Returns ``(x, iters, final_step)`` once the whitened residual is below
    ``cfg.fp_tol``, or once Newton fails at the residual's rounding floor;
    raises NonConvergence on stagnation or an exhausted budget.
    """
    kernel, divdiff = kernels
    residual = lambda y: _whitened_residual(y, mats, kernel)
    x = x0
    r, wnorm, spec = residual(x)
    iters = 0
    best = wnorm
    stall = 0
    # At the residual's rounding floor the Picard step t * R moves X by less
    # than fp_tol, so the Thompson step criterion accepts the level: at once
    # when the Newton step fails there, else after a stall.
    floor = lambda: t * wnorm <= cfg.fp_tol and wnorm <= 1e4 * cfg.fp_tol
    while not wnorm <= cfg.fp_tol:
        stall = stall + 1 if wnorm > 0.995 * best else 0
        best = best if stall else wnorm
        if stall >= 12:
            if floor():
                break
            raise NonConvergence(
                f"fixed-point solve at t={t:g} stagnated at whitened "
                f"residual {wnorm:.3e}",
                final_step=_thompson_step(x, r, t),
                iterations=iters_used + iters,
            )
        if iters_used + iters >= cfg.max_iters:
            raise NonConvergence(
                f"fixed-point solve at t={t:g} exhausted {cfg.max_iters} iterations",
                final_step=_thompson_step(x, r, t),
                iterations=iters_used + iters,
            )
        xn = _newton_point(x, spec, divdiff)
        trial = None if xn is None else (xn, *residual(xn))
        if trial is None or not trial[2] <= max(_NEWTON_DECREASE * wnorm, cfg.fp_tol):
            if floor():
                break
            xn = _sym(x + t * r)  # exact Picard update of the level map
            trial = (xn, *residual(xn))
        x, r, wnorm, spec = trial
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
    x, iters, final_step = _solve_level(mu.matrices, _level_kernels(mu, t), t, x0, cfg, 0)
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
    mats = np.array([m for _, m in sigma])
    kernels = _power_kernels(np.array([w for w, _ in sigma]), t)
    x, iters, final_step = _solve_level(mats, kernels, t, weighted_arith(sigma), cfg, 0)
    rnorm = float(np.linalg.norm(_whitened_residual(x, mats, kernels[0])[0]))
    return SolverReport(
        mean=x,
        iterations=iters,
        final_step=final_step,
        residual_norm=rnorm,
        t_trace=[(t, iters)],
    )


def lambda_mean(mu: PMeasure, cfg: SolverConfig = None) -> SolverReport:
    """Karcher mean of the measure: the t -> 0 limit of the induced means.

    Solves the induced mean along the geometric schedule
    ``t_l = t_start * t_factor**l``, warm-starting each level from the
    previous one, and stops once successive levels are within lambda_tol in
    Thompson metric and the whitened Karcher residual is below residual_tol.
    The levels must decrease in the Loewner order (checked at every step; a
    violation beyond 1e-9 signals a numerics bug, not a modelling error).
    """
    cfg = cfg or SolverConfig()
    x = weighted_arith(mu.matrix_pairs())
    t = cfg.t_start
    karcher = _level_kernels(mu, 0.0)[0]
    prev = None
    trace = []
    total = 0
    final_step = 0.0
    rnorm = float("inf")
    for _ in range(200):
        x, iters, final_step = _solve_level(mu.matrices, _level_kernels(mu, t), t, x, cfg, total)
        total += iters
        trace.append((t, iters))
        if prev is not None:
            if not loewner_leq(x, prev, 1e-9):
                raise MonotonicityViolation(
                    f"induced means failed to decrease from t={t / cfg.t_factor:g} to t={t:g}"
                )
            gap = distance(prev, x)
            r, wnorm, _ = _whitened_residual(x, mu.matrices, karcher)
            rnorm = float(np.linalg.norm(r))
            if gap <= cfg.lambda_tol and wnorm <= cfg.residual_tol:
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
