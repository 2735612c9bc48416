"""Fixed-point solvers for induced means, power means and the Karcher mean.

The induced mean at parameter t solves ``X = T_t(X)`` where

    T_t(X) = integral X^(1/2) m_(s,t)(X^(-1/2) A X^(-1/2)) X^(1/2) dmu,
    m_(s,t)(x) = ([(1-t)(1-s) + t] x + s(1-t)) / ((1-t)(1-s) x + t + s(1-t)),

and the Karcher mean is the decreasing-net limit of those solutions along the
schedule t = 4^-l -> 0, l >= 2, from the largest such t at most the least whitened
eigenvalue of the atoms at L_1, characterized by a vanishing residual

    R(X) = integral X^(1/2) l_s(X^(-1/2) A X^(-1/2)) X^(1/2) dmu,
    l_s(x) = (x - 1) / ((1 - s) x + s).

Numerically everything leans on the exact algebraic identity

    m_(s,t)(x) = 1 + t * l_(t + s(1 - t))(x),

so the update ``T_t(X) - X`` equals ``t * R_t(X)`` with R_t a reparametrized
residual that we evaluate directly, without the catastrophic cancellation of
forming ``T_t(X) - X`` at small t.  Every solve, at each level and at t = 0
(the divergence minimizer), is one damped Newton iteration on the whitened
residual: an exact Newton step in whitened coordinates ``F(I + E)F.T``, ``X = F F.T``,
its Jacobian built in closed form from the divided differences of the kernels the
measure supplies (``mu.kernels(t)``; Daleckii-Krein; Higham, Functions of Matrices,
2008, 3.2) in O(k n^5) time and O(k n^3 + n^4) memory for k atoms, solved densely in
O(n^6), which tells from n of about 16, and halved in length
until the residual decreases (Absil, Mahony and Sepulchre, Optimization
Algorithms on Matrix Manifolds, 2008, ch. 6).  Newton keeps the cost bounded
as t shrinks (plain iteration needs O(1/t) steps, Newton a handful) and, being
congruence-equivariant, any scale of X.

Each visited point is one record (:class:`_Visit`), read by field name: X, its frame, the
atoms' whitened spectra and the whitened residual ``g = C.T R C``, ``C.T X C = I``, with its
norm ``gnorm``, that of ``X^(-1/2) R X^(-1/2)``; stop tests, steps and reports read g, so none
depends on scale.  R is formed only where it is returned, by :func:`karcher_residual` and
:func:`iteration_map`.

Along the net each level starts from the Lagrange extrapolation, in t, of
the last five levels solved (predictor-corrector continuation; Allgower and
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

from .core import (
    _arith,
    _check_weights,
    _harm,
    _is_count,
    _real,
    _sym,
    loewner_leq,
    matrix_to_json,
    spd_matrix,
    spectral_sum,
    sym_matrix,
    whiten,
    whitened_eigh,
)
from .errors import (DomainError, MonotonicityViolation, NonConvergence,
                     NotPositiveDefinite, ShapeError)
from .measures import PMeasure

# Decrease of the whitened residual demanded of a full Newton step at a level's
# rounding floor, and of a predicted level start over the warm one.
_NEWTON_DECREASE = 0.7

# Solved levels in the Lagrange interpolant of the net's level starts and its t = 0 limit.
_LEVELS = 5

# Ratio of successive levels of the net, t_l = _RATIO^-l: Richardson extrapolation on a
# geometric schedule gains more per level the larger the ratio, and 4 still leaves the
# last level well short of the limit, so that the extrapolation carries the answer.  The
# paper's limit holds along any null sequence, so no setting chooses another schedule.
_RATIO = 4

# The net's first solved level after the anchor L_1: the largest t = _RATIO^-l, l >= 2, at
# most lam_min, the least whitened eigenvalue of the atoms at L_1, capped at _FIRST_T = 1/16
# (a level at 1/4, solved from the arithmetic mean with no predictor, only ever fed the
# predictor) and clamped at _MIN_FIRST_T = 2^-52, below which the level equation is the
# Karcher equation to rounding; 200 levels from there end at 2^-450, a normal float.  The
# level kernel (x - 1)/((1 - s_t) x + s_t), s_t = t + s(1 - t), has a pole near
# t = -x/(1 - x) at s = 0, so L_t is the power series in t that the Richardson limit
# assumes only for t below about lam_min; levels above it cost Newton steps and slow the
# limit.  The cost: started inside that radius, most wide-band solves stop at the five
# levels the limit needs, so lambda_tol decides the stop less often.
_FIRST_T = _RATIO ** -2.0
_MIN_FIRST_T = 2.0 ** -52

# Bound on the whitened Karcher residual ``||X^(-1/2) R X^(-1/2)||_F`` that the
# net's extrapolated limit must meet before lambda_mean stops.
RESIDUAL_TOL = 1e-8


@dataclass
class SolverConfig:
    """Tolerances and budget for every solver.

    fp_tol bounds both the Thompson step and the whitened residual at an
    accepted fixed point; lambda_tol stops the t-net (:func:`lambda_mean`) when a certified
    bound on the Thompson gap between successive extrapolations of the levels to t = 0 is
    that small; grad_tol bounds the whitened norm ``||X^(-1/2) R X^(-1/2)||_F``
    of the gradient at minimize_divergence's minimizer.  max_iters caps the
    accepted steps of one solve, summed over its levels.  No test depends on
    scale.  Tolerances must be finite and positive, max_iters a whole number >= 1.
    """

    fp_tol: float = 1e-12
    max_iters: int = 10000
    lambda_tol: float = 1e-9
    grad_tol: float = 1e-9

    def __post_init__(self):
        if not all(0.0 < _real(tol, "each tolerance", DomainError) < math.inf
                   for tol in (self.fp_tol, self.lambda_tol, self.grad_tol)):
            raise DomainError("tolerances must be positive and finite")
        if not _is_count(self.max_iters):
            raise DomainError(f"max_iters must be positive and whole, got {self.max_iters!r}")


@dataclass
class SolverReport:
    """Outcome of a solve.

    mean : converged SPD matrix
    iterations : accepted updates, summed over all levels
    residual_norm : whitened Frobenius norm ``||X^(-1/2) R X^(-1/2)||_F`` of the
        residual of the equation solved, the number the stop tests bound: the Karcher
        equation's for lambda_mean (RESIDUAL_TOL) and minimize_divergence (grad_tol), the
        level equation's for induced_mean and the power equation's for power_mean (fp_tol,
        or up to 1e4 fp_tol at a level's rounding floor, see :func:`_solve_level`)
    t_trace : [(t, iterations)] per level of the schedule
    """

    mean: np.ndarray
    iterations: int
    residual_norm: float
    t_trace: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "mean": matrix_to_json(self.mean),
            "iterations": int(self.iterations),
            "residual_norm": float(self.residual_norm),
            "t_trace": [[float(t), int(n)] for t, n in self.t_trace],
        }


# ---------------------------------------------------------------------------
# residual fields
# ---------------------------------------------------------------------------


class _Visit:
    """A visited point of the Newton engine; every reader takes its fields by name.

    ``x`` is X, ``f, c`` its frame ``X = F F.T``, ``C.T X C = I``, and ``lam, q`` the stacked
    eigenpairs of the atoms whitened there (:func:`whitened_eigh`), free of t.  Under a
    kernel, ``phi, divdiff = kernel(lam)`` is its one pass over that spectrum, ``g`` the whitened
    residual ``G = C.T R C = sum_k Q_k diag(phi_k) Q_k.T`` and ``gnorm = ||G||_F``: every stop
    test and Newton step reads G, never R, and ``divdiff()`` gives the divided differences
    from that same pass, so a Newton step from the point evaluates the kernel no more.
    """

    __slots__ = ("x", "f", "c", "lam", "q", "gnorm", "phi", "g", "divdiff")

    def __init__(self, x, f, c, lam, q, kernel=None):
        self.x, self.f, self.c, self.lam, self.q = x, f, c, lam, q
        self.phi, self.divdiff = (None, None) if kernel is None else kernel(lam)
        self.g = None if kernel is None else spectral_sum(q, self.phi)
        self.gnorm = None if kernel is None else float(np.linalg.norm(self.g))

    @classmethod
    def whiten(cls, x, atoms, kernel=None, gate=None):
        """X whitened against ``atoms = (mats, factors)``, under ``kernel`` if given.

        ``gate``: None takes X as the engine built it; "trial" a step's ``sym(X)``, None unless
        positive definite; "caller" a caller's X through :func:`sym_matrix`, of the atoms'
        dimension, DomainError unless its whitened lam are normal floats, with no kernel.
        """
        if gate == "caller":
            with np.errstate(over="ignore", under="ignore", invalid="ignore"):
                point = cls.whiten(_sized(sym_matrix(x), atoms[0].shape[1:]), atoms)
            if not np.all((point.lam >= np.finfo(float).tiny) & (point.lam < math.inf)):
                raise DomainError("the atoms' whitened spectrum at X leaves the normal float range")
            return point
        if gate == "trial":
            try:
                return cls(y := _sym(x), *whitened_eigh(y, *atoms), kernel)
            except NotPositiveDefinite:
                return None
        return cls(x, *whitened_eigh(x, *atoms), kernel)

    def under(self, kernel):
        """The point's record under kernel: one pass of it over the whitened spectrum, no eigh."""
        return _Visit(self.x, self.f, self.c, self.lam, self.q, kernel)


def _sized(x, shape) -> np.ndarray:
    """A caller's gated point X, ShapeError unless of the measure's ``shape``, (n, n)."""
    if x.shape != shape:
        raise ShapeError("matrix and measure dimensions differ")
    return x


def _check_t(t):
    """DomainError unless t is a real number in (0, 1]: the parameter of a level map or mean."""
    if not 0.0 < _real(t, "t", DomainError) <= 1.0:
        raise DomainError(f"t must lie in (0, 1], got {t}")


def karcher_residual(x, mu: PMeasure) -> np.ndarray:
    """Left-hand side of the Karcher equation at X.

    ``integral X^(1/2) l_s(X^(-1/2) A X^(-1/2)) X^(1/2) dmu`` with
    ``l_s(x) = (x - 1)/((1 - s) x + s)``;
    symmetric, and zero exactly at the Karcher mean of the measure.
    """
    point = _Visit.whiten(x, (mu.matrices, mu.factors), gate="caller")
    return spectral_sum(point.q, mu.kernels(0.0)(point.lam)[0], point.f)


def iteration_map(x, t: float, mu: PMeasure) -> np.ndarray:
    """One step of the induced-mean iteration.

    ``T_t(X) = integral X^(1/2) m_(s,t)(X^(-1/2) A X^(-1/2)) X^(1/2) dmu``, with the
    two-parameter mean kernel ``m_(s,t)`` of the module docstring; SPD and monotone
    in X.  ``t = 1`` collapses to the weighted arithmetic mean of the atoms
    regardless of X.
    """
    _check_t(t)
    point = _Visit.whiten(x, (mu.matrices, mu.factors), gate="caller")
    r = spectral_sum(point.q, mu.kernels(t)(point.lam)[0], point.f)
    return _sym(point.x + t * r)  # R_t(X) = (T_t(X) - X)/t evaluated directly


# ---------------------------------------------------------------------------
# damped whitened-Newton engine
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _sym_pairs(n):
    """``(ij, c, cc, at)``: the orthonormal basis ``c (E_ij + E_ji)``, i <= j, of the symmetric
    matrices at flat indices ``ij = n i + j`` (c = 1/2 on the diagonal, else 1/sqrt(2)),
    ``cc = 2 c c.T``, and the flat indices ``at`` of :func:`_whitened_jacobian`'s two T reads."""
    i, j = np.triu_indices(n)
    c = np.where(i == j, 0.5, math.sqrt(0.5))
    flat = lambda r, s, u, v: np.add.outer(n * r, s) * n * n + np.add.outer(n * u, v)
    return n * i + j, c, 2.0 * np.outer(c, c), (flat(i, i, j, j), flat(i, j, j, i))


def _whitened_jacobian(visit):
    """Jacobian of G along ``F(I + E)F.T`` on the :func:`_sym_pairs` basis, at a :class:`_Visit`.

    Daleckii-Krein: ``dG[E] = sum_k Q_k (Gamma_k o Q_k.T E Q_k) Q_k.T`` with
    ``Gamma_k,ij = (phi_i + phi_j)/2 - (lam_i + lam_j)/2 * phi^[1](lam_i, lam_j)``, phi and
    the divided differences ``phi^[1]`` read from the visit record.  With ``M_k[(i, a), p] =
    Q_k[i, p] Q_k[a, p]``, ``T = sum_k M_k Gamma_k M_k.T`` holds ``<E_ij, dG[E_ab]>`` at
    ``T[(i, a), (j, b)]``: ``J[a, b] = 2 c_a c_b (T[(i, i'), (j, j')] + T[(i, j'), (j, i')])``.
    """
    lam, q, phi = visit.lam, visit.q, visit.phi
    k, n = lam.shape
    gamma = 0.5 * (phi[:, :, None] + phi[:, None, :]
                   - (lam[:, :, None] + lam[:, None, :]) * visit.divdiff())
    m = np.einsum("kip,kap->iakp", q, q).reshape(n * n, k, n)  # M_k[(i, a), p] at [(i, a), k, p]
    mg = (m.transpose(1, 0, 2) @ gamma).transpose(1, 0, 2)  # M_k Gamma_k, in m's layout
    t = mg.reshape(n * n, -1) @ m.reshape(n * n, -1).T
    _, _, cc, at = _sym_pairs(n)
    return cc * (t.take(at[0]) + t.take(at[1]))


def _newton_step(visit):
    """Newton step ``F E F.T`` with ``dG[E] = -G``, from a :class:`_Visit` record alone.

    None if the Jacobian is singular.
    """
    f, g = visit.f, visit.g
    ij, c, _, _ = _sym_pairs(len(g))
    try:
        y = np.linalg.solve(_whitened_jacobian(visit), -2.0 * c * g.take(ij))
    except np.linalg.LinAlgError:
        return None
    e = np.zeros_like(g)
    e.put(ij, c * y)  # E = sum_a y_a c_a (E_ij + E_ji) = e + e.T
    return f @ (e + e.T) @ f.T if np.all(np.isfinite(e)) else None


def _solve_level(atoms, kernel, t, visit, tol, max_iters, iters_used=0, on_step=None):
    """Damped Newton on ``G = 0`` for the level map ``x -> x + t * R(x)``; t = 0 is Karcher.

    Each step's length eta is halved until the trial point is SPD and its whitened
    residual is at most ``max((1 - 1e-4 eta)||G||, tol)``.  At a level's rounding floor
    (t > 0, ``t||G|| <= tol``, ``||G|| <= 1e4 tol``) a step moves X by less than tol:
    only the full step is tried, against _NEWTON_DECREASE, and a miss ends the level.
    From a start ``visit`` (:class:`_Visit`, under the level's kernel), returns ``(visit,
    iterations)`` with the end point's visit.  ``on_step(visit)`` follows each step.
    Raises NonConvergence ("stalled") when the Jacobian is singular or eta drops below 1e-10,
    where the demanded decrease nears rounding, or when ``iters_used`` plus the iterations
    reach max_iters.
    """
    iters = 0
    fail = lambda why: NonConvergence(
        f"Newton solve at t={t:g} {why} at whitened residual {visit.gnorm:.3e}",
        iterations=iters_used + iters)
    while not visit.gnorm <= tol:
        if iters_used + iters >= max_iters:
            raise fail(f"exhausted {max_iters} iterations")
        wnorm = visit.gnorm
        floor = t > 0.0 and t * wnorm <= tol and wnorm <= 1e4 * tol
        step = _newton_step(visit)
        eta = 1.0
        while step is not None and eta >= (1.0 if floor else 1e-10):
            trial = _Visit.whiten(visit.x + eta * step, atoms, kernel, "trial")
            decrease = _NEWTON_DECREASE if floor else 1.0 - 1e-4 * eta
            if trial is not None and trial.gnorm <= max(decrease * wnorm, tol):
                break
            eta *= 0.5
        else:
            if floor:
                break
            raise fail("stalled")
        visit = trial
        iters += 1
        if on_step is not None:
            on_step(visit)
    return visit, iters


def _solve(w, mats, factors, kernel, t, tol, max_iters, on_step=None) -> SolverReport:
    """One solve at t from the weighted arithmetic mean of gated ``w``, ``mats``; t = 0 is Karcher.

    Runs :func:`_solve_level` from that start and reports its end point: residual_norm
    is the whitened ``||G||_F`` of the equation solved, and t_trace ``[(t, iterations)]``,
    empty at t = 0 where there is no schedule.
    """
    start = _Visit.whiten(_arith(w, mats), (mats, factors), kernel)
    visit, iters = _solve_level((mats, factors), kernel, t, start, tol, max_iters, on_step=on_step)
    return SolverReport(mean=visit.x, iterations=iters, residual_norm=visit.gnorm,
                        t_trace=[(t, iters)] if t > 0.0 else [])


def induced_mean(t: float, mu: PMeasure, cfg: SolverConfig = None) -> SolverReport:
    """Solve the induced-mean equation ``X = T_t(X)`` for t in (0, 1].

    Starts from the weighted arithmetic mean of the atoms, which lies in
    the invariant order interval of the iteration, and converges to the
    unique fixed point.  The reported mean satisfies
    ``distance(X, iteration_map(X, t, mu)) <= 10 * fp_tol``; residual_norm is
    the whitened norm of the level residual ``R_t`` there.
    """
    _check_t(t)
    cfg = cfg or SolverConfig()
    return _solve(mu.weights, mu.matrices, mu.factors, mu.kernels(t), t, cfg.fp_tol, cfg.max_iters)


def power_mean(t: float, sigma, cfg: SolverConfig = None) -> SolverReport:
    """Solve the power-mean equation ``X = sum_i w_i X #_t A_i`` for t in (0, 1].

    It is :func:`lambda_mean` of the same atoms under ``SMeasure.power(t)`` (Lim and Palfia,
    JFA 262, 2012); verify's ``means.power_route`` row checks that the two routes agree.
    ``t = 1`` gives the weighted arithmetic mean.  The reported residual_norm
    is the whitened Frobenius norm ``||sum_i w_i (W_i^t - I)/t||_F`` of the
    generalized residual at the solution, ``W_i = X^(-1/2) A_i X^(-1/2)``.
    """
    _check_t(t)
    cfg = cfg or SolverConfig()
    w, (mats, factors, _) = _check_weights(sigma)
    return _solve(w, mats, factors, PMeasure.power_kernels(w, t), t, cfg.fp_tol, cfg.max_iters)


@lru_cache(maxsize=512)
def _lagrange_weights(ts, t):
    """Lagrange basis weights at t of the nodes ``ts``, one tuple per node set and point.

    The net's nodes are windows of the schedule ``4^-l``, which starts at a level read off
    the input: the 108 solves of three bands (seeds 0-11, n in {2, 4, 6}) made 93 keys.
    """
    return tuple(math.prod((t - tj) / (ti - tj) for j, tj in enumerate(ts) if j != i)
                 for i, ti in enumerate(ts))


def _lagrange(history, t):
    """Lagrange interpolant at t of the solved levels ``history = [(t_i, L_{t_i})]``."""
    weights = _lagrange_weights(tuple(ti for ti, _ in history), t)
    return sum(x * w for (_, x), w in zip(history, weights))


def _predicted_start(history, t, warm, atoms, kernel):
    """The :class:`_Visit` starting level t: extrapolated from the solved levels, else warm.

    ``history`` holds the last (up to _LEVELS) solved levels ``(t_i, L_{t_i})``; their
    Lagrange extrapolation to t is taken if it is positive definite and its whitened
    residual at t is at most _NEWTON_DECREASE times that of the warm start.
    """
    start = warm.under(kernel)
    if len(history) < 2:
        return start
    trial = _Visit.whiten(_lagrange(history, t), atoms, kernel, "trial")
    return trial if trial is not None and trial.gnorm <= _NEWTON_DECREASE * start.gnorm else start


def _extrapolation_gap(lam):
    """Certified bound on ``d(E_prev, E)`` from whitened spectra; inf if unproven.

    ``lam`` holds the ascending spectra of ``C.T E C`` and of ``C.T (E - E_prev) C`` for
    the frame ``C.T X C = I`` of any SPD X.  With m the least of the first
    and delta the spectral radius of the second, both are positive definite and
    ``d(E_prev, E) <= -log(1 - delta/m)`` whenever ``delta < m``.
    """
    m, delta = lam[0, 0], np.max(np.abs(lam[1]))
    return -math.log1p(-delta / m) if delta < m else math.inf


def lambda_mean(mu: PMeasure, cfg: SolverConfig = None) -> SolverReport:
    """Karcher mean of the measure: the t -> 0 limit of the induced means.

    Solves the induced mean along the schedule ``t_l = _RATIO**-l = 4**-l``, from the
    largest such t, l >= 2, at most the least whitened eigenvalue of the atoms at ``L_1``,
    clamped to [_MIN_FIRST_T, _FIRST_T], for at most 200 levels.  Once _LEVELS levels are
    solved, ``L_1`` (the weighted arithmetic mean) among them, it extrapolates the last
    _LEVELS to t = 0 after each level (:func:`_lagrange`) and stops once two successive
    extrapolations are provably positive definite and within lambda_tol in Thompson
    metric (:func:`_extrapolation_gap`) and the latest one's whitened Karcher residual is
    at most RESIDUAL_TOL; that extrapolation is the reported mean.  Each level starts
    from :func:`_predicted_start`.  The levels must
    decrease in the Loewner order, checked at every level on the whitened
    ``C.T L_prev C >= I``: an eigenvalue below ``1 - 1e-9`` signals a numerics bug, not
    a modelling error.  One stacked whiten of ``[L_prev, E, E - E_prev]`` in the level's
    frame X serves both.
    """
    cfg = cfg or SolverConfig()
    atoms = (mu.matrices, mu.factors)
    point = _Visit.whiten(_arith(mu.weights, mu.matrices), atoms)
    history = [(1.0, point.x)]  # L_1 is the weighted arithmetic mean
    t = _FIRST_T
    lam_min = point.lam[:, 0].min()  # least whitened eigenvalue of the atoms at L_1
    while t > lam_min and t > _MIN_FIRST_T:
        t /= _RATIO
    karcher, prev, e_prev = mu.kernels(0.0), None, None
    trace, total = [], 0
    for _ in range(200):
        kernel = mu.kernels(t)
        start = _predicted_start(history, t, point, atoms, kernel)
        point, iters = _solve_level(atoms, kernel, t, start, cfg.fp_tol, cfg.max_iters, total)
        total += iters
        trace.append((t, iters))
        history = history[1 - _LEVELS:] + [(t, point.x)]
        # Richardson extrapolation of the levels to t = 0
        e = _lagrange(history, 0.0) if len(history) == _LEVELS else None
        if prev is not None:
            pair = [] if e_prev is None else [e, e - e_prev]
            lam = whiten(point.c, np.stack([prev, *pair]))[0]
            if not np.array_equal(prev, point.x) and lam[0, 0] < 1.0 - 1e-9:
                raise MonotonicityViolation(
                    f"induced means failed to decrease from t={t_prev:g} to t={t:g}"
                )
            if pair and _extrapolation_gap(lam[1:]) <= cfg.lambda_tol:
                mean = _Visit.whiten(e, atoms, karcher, "trial")
                if mean is not None and mean.gnorm <= RESIDUAL_TOL:
                    break
        t_prev, prev, e_prev = t, point.x, e
        t /= _RATIO
    else:
        raise NonConvergence("t-schedule exhausted 200 levels without meeting lambda_tol",
                             iterations=total)
    return SolverReport(mean=mean.x, iterations=total, residual_norm=mean.gnorm, t_trace=trace)


def sandwich_check(x, mu: PMeasure) -> bool:
    """True iff harmonic mean <= X <= arithmetic mean of the atoms.

    Both by :func:`loewner_leq` at tol 1e-9, relative to the operands' norms, so that the
    answer does not change when X and the atoms are scaled together.
    """
    x = _sized(spd_matrix(x), (mu.dim, mu.dim))
    return (loewner_leq(_harm(mu.weights, mu.matrices), x, 1e-9)
            and loewner_leq(x, _arith(mu.weights, mu.matrices), 1e-9))
