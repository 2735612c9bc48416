"""Fixed-point solvers for induced means, power means and the Karcher mean.

The induced mean at parameter t solves ``X = T_t(X)`` where

    T_t(X) = integral X^(1/2) mean_kernel(s, t, X^(-1/2) A X^(-1/2)) X^(1/2) dmu

and the Karcher mean is the decreasing-net limit of those solutions along the
dyadic schedule t = 2^-l -> 0, characterized by a vanishing residual

    R(X) = integral X^(1/2) log_kernel(s, X^(-1/2) A X^(-1/2)) X^(1/2) dmu.

Numerically everything leans on the exact algebraic identity

    mean_kernel(s, t, x) = 1 + t * log_kernel(t + s(1 - t), x),

so the update ``T_t(X) - X`` equals ``t * R_t(X)`` with R_t a reparametrized
residual that we evaluate directly, without the catastrophic cancellation of
forming ``T_t(X) - X`` at small t.  Every solve, at each level and at t = 0
(the divergence minimizer), is one damped Newton iteration on the whitened
residual: an exact Newton step in whitened coordinates ``X^(1/2)(I + E)X^(1/2)``,
its Jacobian built in closed form from the kernels' divided differences
(Daleckii-Krein; Higham, Functions of Matrices, 2008, 3.2), halved in length
until the residual decreases (Absil, Mahony and Sepulchre, Optimization
Algorithms on Matrix Manifolds, 2008, ch. 6).  Newton keeps the cost bounded
as t shrinks (plain iteration needs O(1/t) steps, Newton a handful) and, being
congruence-equivariant, any scale of X.

Along the net each level starts from the Lagrange extrapolation, in t, of
the last three levels solved (predictor-corrector continuation; Allgower and
Georg, Introduction to Numerical Continuation Methods, 2003, ch. 2).  The same
extrapolation to t = 0 takes the limit: L_t is smooth in t, so Richardson
extrapolation of the solved levels (Brezinski and Redivo-Zaglia, Extrapolation
Methods, 1991) reaches it after far fewer levels than waiting for successive
levels, which close in only like t, to meet.  Each level is still a genuine
fixed point, the decreasing-net property is checked at every level, and the
answer comes from the levels alone, independent of the t = 0 Newton route.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.linalg as sla

from .core import (
    _arith,
    _check_weights,
    _harm,
    _sym,
    loewner_leq,
    matrix_to_json,
    spd_matrix,
    spectral_sum,
    whiten,
    whitened_eigh,
)
from .errors import (DomainError, MonotonicityViolation, NonConvergence,
                     NotPositiveDefinite, ShapeError)
from .measures import PMeasure
from .thompson import log_spread

# Decrease of the whitened residual demanded of a full Newton step at a level's
# rounding floor, and of a predicted level start over the warm one.
_NEWTON_DECREASE = 0.7

# Bound on the whitened Karcher residual ``||X^(-1/2) R X^(-1/2)||_F`` that the
# net's extrapolated limit must meet before lambda_mean stops.
RESIDUAL_TOL = 1e-8


@dataclass
class SolverConfig:
    """Tolerances and budget for every solver.

    fp_tol bounds both the Thompson step and the whitened residual at an
    accepted fixed point; lambda_tol stops the dyadic t-net when a certified
    bound on the Thompson gap between successive extrapolations of the levels
    to t = 0 is that small (the latest extrapolation must also meet
    RESIDUAL_TOL); grad_tol bounds the whitened norm ``||X^(-1/2) R X^(-1/2)||_F``
    of the gradient at minimize_divergence's minimizer.  max_iters caps the
    accepted steps of one solve, summed over its levels.  No test depends on
    scale.
    """

    fp_tol: float = 1e-12
    max_iters: int = 10000
    lambda_tol: float = 1e-9
    grad_tol: float = 1e-9

    def __post_init__(self):
        if not all(tol > 0.0 for tol in (self.fp_tol, self.lambda_tol, self.grad_tol)):
            raise DomainError("tolerances must be positive")
        if not self.max_iters >= 1:
            raise DomainError("max_iters must be positive")


@dataclass
class SolverReport:
    """Outcome of a solve.

    mean : converged SPD matrix
    iterations : accepted updates, summed over all levels
    final_step : Thompson distance d(X, T(X)) at the reported mean; for lambda_mean,
        that of the last solved level's fixed point; for minimize_divergence, the
        Thompson length of its last Newton step (0.0 if none)
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


def _point(x, mats):
    """A visited point: X with its :func:`whitened_eigh` against ``mats``, free of t and kernel."""
    return x, whitened_eigh(x, mats)


def _whitened_residual(white, kernel):
    """Residual ``R = X^(1/2) G X^(1/2)``, ``G = sum_k Q_k diag(kernel(lam)_k) Q_k.T``.

    ``white = (X^(1/2), X^(-1/2), lam, Q)`` is X's whitened spectrum; returns ``(R,
    ||G||_F, spec)``, the Newton step's data ``spec = (X^(1/2), lam, Q, kernel(lam), G)``.
    """
    rs, _, lam, q = white
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


def _gate_point(x, mu: PMeasure) -> np.ndarray:
    """A caller's point X through :func:`spd_matrix`, of the measure's dimension."""
    x = spd_matrix(x)
    if x.shape != (mu.dim, mu.dim):
        raise ShapeError("matrix and measure dimensions differ")
    return x


def karcher_residual(x, mu: PMeasure) -> np.ndarray:
    """Left-hand side of the Karcher equation at X.

    ``integral X^(1/2) log_kernel(s, X^(-1/2) A X^(-1/2)) X^(1/2) dmu``;
    symmetric, and zero exactly at the Karcher mean of the measure.
    """
    x = _gate_point(x, mu)
    return _whitened_residual(whitened_eigh(x, mu.matrices), _level_kernels(mu, 0.0)[0])[0]


def iteration_map(x, t: float, mu: PMeasure) -> np.ndarray:
    """One step of the induced-mean iteration.

    ``T_t(X) = integral X^(1/2) mean_kernel(s, t, X^(-1/2) A X^(-1/2)) X^(1/2) dmu``,
    SPD and monotone in X.  ``t = 1`` collapses to the weighted arithmetic
    mean of the atoms regardless of X.
    """
    if not 0.0 < t <= 1.0:
        raise DomainError(f"t must lie in (0, 1], got {t}")
    x = _gate_point(x, mu)
    r = _whitened_residual(whitened_eigh(x, mu.matrices), _level_kernels(mu, t)[0])[0]
    return _sym(x + t * r)  # R_t(X) = (T_t(X) - X)/t evaluated directly


# ---------------------------------------------------------------------------
# damped whitened-Newton engine
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


def _newton_step(spec, divdiff):
    """Newton step ``X^(1/2) E X^(1/2)`` with ``dG[E] = -G``; None if the Jacobian is singular."""
    rs, acc = spec[0], spec[4]
    jac, flat = _whitened_jacobian(spec, divdiff)
    lu = sla.lu_factor(jac, check_finite=False)
    e = (sla.lu_solve(lu, -(flat @ acc.ravel()), check_finite=False) @ flat).reshape(acc.shape)
    return rs @ e @ rs if np.all(np.isfinite(e)) else None


def _trial_point(x, mats):
    """The visited point ``sym(X)``, or None if that is not positive definite."""
    try:
        return _point(_sym(x), mats)
    except NotPositiveDefinite:
        return None


def _visit(point, kernel):
    """A visited point with its residual, ``(point, R, ||G||_F, spec)``; None for None."""
    return None if point is None else (point, *_whitened_residual(point[1], kernel))


def _ratio_spectrum(a, point):
    """Eigenvalues of ``X^(-1/2) A X^(-1/2)`` at a visited point X; ones if A is X."""
    return np.ones(len(a)) if np.array_equal(a, point[0]) else whiten(point[1][1], a[None])[0][0]


def _gap(a, point):
    """Thompson distance from A to a visited point, as ``distance(A, X)`` computes it."""
    return log_spread(_ratio_spectrum(a, point))


def _final_step(point, r, t, prev=None):
    """A report's final_step: ``d(X, X + tR)`` from the whitened residual spectrum.

    At t = 0 that is 0; there it is the Thompson length of the last accepted step,
    from the visited point ``prev`` it started at (0.0 if no step was taken).
    """
    if t == 0.0:
        return 0.0 if prev is None else _gap(point[0], prev)
    arg = 1.0 + t * whiten(point[1][1], r[None])[0]
    if np.any(arg <= 0.0):
        return float("inf")
    return float(np.max(np.abs(np.log(arg))))


def _solve_level(mats, kernels, t, start, tol, max_iters, iters_used=0, on_step=None):
    """Damped Newton on ``G = 0`` for the level map ``x -> x + t * R(x)``; t = 0 is Karcher.

    Each step's length eta is halved until the trial point is SPD and its whitened
    residual is at most ``max((1 - 1e-4 eta)||G||, tol)``.  At a level's rounding floor
    (t > 0, ``t||G|| <= tol``, ``||G|| <= 1e4 tol``) a step moves X by less than tol:
    only the full step is tried, against _NEWTON_DECREASE, and a miss ends the level.
    From a start :func:`_visit` under the level's kernel, returns the end point, its R,
    the iterations and the point before the last step; ``on_step(x, R)`` follows each
    step.  Raises NonConvergence when eta drops below 1e-10, where the demanded decrease
    nears rounding and X barely moves, or ``iters_used`` plus the iterations reach
    max_iters.
    """
    kernel, divdiff = kernels
    point, r, wnorm, spec = start
    prev = None
    iters = 0
    fail = lambda why: NonConvergence(
        f"Newton solve at t={t:g} {why} at whitened residual {wnorm:.3e}",
        final_step=_final_step(point, r, t, prev), iterations=iters_used + iters)
    while not wnorm <= tol:
        if iters_used + iters >= max_iters:
            raise fail(f"exhausted {max_iters} iterations")
        floor = t > 0.0 and t * wnorm <= tol and wnorm <= 1e4 * tol
        step = _newton_step(spec, divdiff)
        eta = 1.0
        while step is not None and eta >= (1.0 if floor else 1e-10):
            trial = _visit(_trial_point(point[0] + eta * step, mats), kernel)
            decrease = _NEWTON_DECREASE if floor else 1.0 - 1e-4 * eta
            if trial is not None and trial[2] <= max(decrease * wnorm, tol):
                break
            eta *= 0.5
        else:
            if floor:
                break
            raise fail("stalled")
        prev, (point, r, wnorm, spec) = point, trial
        iters += 1
        if on_step is not None:
            on_step(point[0], r)
    return point, r, iters, prev


def _solve(w, mats, kernels, t, tol, max_iters, on_step=None):
    """One solve at t from the weighted arithmetic mean of gated ``w``, ``mats``; t = 0 is Karcher.

    Runs :func:`_solve_level` from that start and returns ``(point, R, iterations,
    final_step)``, final_step as :func:`_final_step` reports it.
    """
    start = _visit(_point(_arith(w, mats), mats), kernels[0])
    point, r, iters, prev = _solve_level(mats, kernels, t, start, tol, max_iters,
                                         on_step=on_step)
    return point, r, iters, _final_step(point, r, t, prev)


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
    point, _, iters, step = _solve(mu.weights, mu.matrices, _level_kernels(mu, t), t,
                                   cfg.fp_tol, cfg.max_iters)
    karcher = _whitened_residual(point[1], _level_kernels(mu, 0.0)[0])[0]
    return SolverReport(
        mean=point[0],
        iterations=iters,
        final_step=step,
        residual_norm=float(np.linalg.norm(karcher)),
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
    w, mats = _check_weights(sigma)
    point, r, iters, step = _solve(w, mats, _power_kernels(w, t), t, cfg.fp_tol, cfg.max_iters)
    return SolverReport(
        mean=point[0],
        iterations=iters,
        final_step=step,
        residual_norm=float(np.linalg.norm(r)),
        t_trace=[(t, iters)],
    )


def _lagrange(history, t):
    """Lagrange interpolant at t of the solved levels ``history = [(t_i, L_{t_i})]``."""
    ts = [ti for ti, _ in history]
    return sum(x * math.prod((t - tj) / (ts[i] - tj) for j, tj in enumerate(ts) if j != i)
               for i, (_, x) in enumerate(history))


def _predicted_start(history, t, warm, mats, kernel):
    """Start of level t, with its residual: extrapolated from the solved levels, else warm.

    ``history`` holds the last (up to three) solved levels ``(t_i, L_{t_i})``; their
    Lagrange extrapolation to t is taken if it is positive definite and its whitened
    residual at t is at most _NEWTON_DECREASE times that of the warm start.
    """
    start = _visit(warm, kernel)
    if len(history) < 2:
        return start
    trial = _visit(_trial_point(_lagrange(history, t), mats), kernel)
    return trial if trial is not None and trial[2] <= _NEWTON_DECREASE * start[2] else start


def _extrapolation_gap(point, e, e_prev):
    """Certified bound on ``d(E_prev, E)``, in the frame of a visited point X; inf if unproven.

    With ``m = min spec(X^(-1/2) E X^(-1/2))`` and delta the spectral radius of
    ``X^(-1/2) (E - E_prev) X^(-1/2)``, both are positive definite and
    ``d(E_prev, E) <= -log(1 - delta/m)`` whenever ``delta < m``.
    """
    lam = whiten(point[1][1], np.stack([e, e - e_prev]))[0]
    m, delta = lam[0, 0], np.max(np.abs(lam[1]))
    return -math.log1p(-delta / m) if delta < m else math.inf


def lambda_mean(mu: PMeasure, cfg: SolverConfig = None) -> SolverReport:
    """Karcher mean of the measure: the t -> 0 limit of the induced means.

    Solves the induced mean along the dyadic schedule ``t_l = 2**-l``, l = 1, 2, ...
    (at most 200 levels).  After each level it extrapolates the last three levels
    solved to t = 0 (:func:`_lagrange`) and stops once two successive extrapolations
    are provably positive definite and within lambda_tol in Thompson metric
    (:func:`_extrapolation_gap`) and the latest one's whitened Karcher residual is at
    most RESIDUAL_TOL; that extrapolation is the reported mean.  Each level starts
    from the quadratic extrapolation in t of the last three levels solved, ``L_1``
    being the weighted arithmetic mean, unless that start is no better than the
    previous level (see :func:`_predicted_start`).  The levels must decrease in the
    Loewner order, checked at every level on the whitened ``X^(-1/2) L_prev X^(-1/2) >= I``:
    an eigenvalue below ``1 - 1e-9`` signals a numerics bug, not a modelling error.
    """
    cfg = cfg or SolverConfig()
    mats = mu.matrices
    point = _point(_arith(mu.weights, mats), mats)
    history = [(1.0, point[0])]  # L_1 is the weighted arithmetic mean
    t = 0.5
    karcher = _level_kernels(mu, 0.0)[0]
    prev = e_prev = None
    trace = []
    total = 0
    for _ in range(200):
        kernels = _level_kernels(mu, t)
        start = _predicted_start(history, t, point, mats, kernels[0])
        point, r, iters, _ = _solve_level(mats, kernels, t, start, cfg.fp_tol, cfg.max_iters,
                                          total)
        total += iters
        trace.append((t, iters))
        history = history[-2:] + [(t, point[0])]
        if prev is not None and np.min(_ratio_spectrum(prev, point)) < 1.0 - 1e-9:
            raise MonotonicityViolation(
                f"induced means failed to decrease from t={2 * t:g} to t={t:g}"
            )
        if len(history) == 3:
            e = _lagrange(history, 0.0)  # Richardson extrapolation of the levels to t = 0
            if e_prev is not None and _extrapolation_gap(point, e, e_prev) <= cfg.lambda_tol:
                mean = _visit(_trial_point(e, mats), karcher)
                if mean is not None and mean[2] <= RESIDUAL_TOL:
                    break
            e_prev = e
        prev = point[0]
        t *= 0.5
    else:
        raise NonConvergence(
            "t-schedule exhausted 200 levels without meeting lambda_tol",
            final_step=_final_step(point, r, trace[-1][0]),  # the last solved level's t
            iterations=total,
        )
    return SolverReport(
        mean=mean[0][0],
        iterations=total,
        final_step=_final_step(point, r, t),  # the last solved level's step
        residual_norm=float(np.linalg.norm(mean[1])),
        t_trace=trace,
    )


def sandwich_check(x, mu: PMeasure) -> bool:
    """True iff harmonic mean <= X <= arithmetic mean of the atoms (Loewner, scaled tol 1e-9)."""
    x = _gate_point(x, mu)
    return (loewner_leq(_harm(mu.weights, mu.matrices), x, 1e-9)
            and loewner_leq(x, _arith(mu.weights, mu.matrices), 1e-9))
