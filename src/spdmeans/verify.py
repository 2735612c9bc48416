"""Seeded, reproducible invariant checks behind ``spdmeans verify``.

:data:`CHECKS` is one ordered table of rows ``(name, draws, check)``.  ``check(rng,
dim)`` draws one case from the generators below and returns one bool per assertion,
or an empty list when the draw does not apply (ball points closer than 1e-8, a bumped
measure that ``measure_leq`` does not order).  ``draws`` is how many cases a run
draws: ``"trials"`` or ``"heavy"`` (``max(1, trials // 10)``, for checks that solve
for means).  :func:`run_suite` runs a suite's rows in table order on one
``default_rng(seed)`` stream and prints one ``name: passed/total`` line per row, so
two runs with the same flags emit byte-identical output.

Random SPD matrices are ``Q D Q.T``, Q from the QR factorization of a seeded Gaussian
matrix and D log-uniform, which keeps conditioning controlled.  Checks against closed
forms (geometric, scalar and power means) draw from a narrower eigenvalue range than
the structural checks: their identities hold for the discretized measures at any
conditioning, while closed-form agreement also spends the quadrature error budget.
"""

import math
import operator

import numpy as np

from . import core, divergence, measures, monotone, solver, thompson
from .errors import SpdMeansError

SUITES = ("thompson", "means", "divergence", "all")


def random_spd(rng, dim, lo=1e-2, hi=1e2):
    """Random SPD matrix Q D Q.T; Q from Gaussian QR, D log-uniform in [lo, hi]."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    d = np.exp(rng.uniform(math.log(lo), math.log(hi), dim))
    return core._sym((q * d) @ q.T)


def random_transform(rng, dim, lo=0.5, hi=2.0):
    """Random invertible matrix with singular values log-uniform in [lo, hi]."""
    q1, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    q2, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    sv = np.exp(rng.uniform(math.log(lo), math.log(hi), dim))
    return (q1 * sv) @ q2


def random_weights(rng, k, lo=0.5, hi=1.5):
    """Random simplex weights: uniform in [lo, hi], normalized, the last one 1 minus the rest."""
    w = rng.uniform(lo, hi, k)
    w = w / w.sum()
    w[-1] = 1.0 - w[:-1].sum()
    return w


def random_smeasure(rng):
    """Random [0, 1]-measure: Dirac, atomic, Lebesgue or power, each kind equally likely."""
    kind = int(rng.integers(0, 4))
    if kind == 0:
        return monotone.SMeasure.dirac(float(rng.uniform(0.0, 1.0)))
    if kind == 1:
        k = int(rng.integers(2, 4))
        v = random_weights(rng, k, 0.2, 1.0)
        s = rng.uniform(0.0, 1.0, k)
        return monotone.SMeasure.from_atoms(list(zip(s, v)))
    if kind == 2:
        return monotone.SMeasure.lebesgue()
    return monotone.SMeasure.power(float(rng.uniform(0.15, 0.85)))


def random_measure(rng, dim, n_atoms=3, lo=1e-1, hi=1e1):
    w = random_weights(rng, n_atoms)
    return measures.PMeasure([(w[i], random_spd(rng, dim, lo, hi), random_smeasure(rng))
                              for i in range(n_atoms)])


def _psd_bump(rng, dim, scale=0.3):
    g = rng.standard_normal((dim, dim))
    return scale * core._sym(g @ g.T)


def random_ball_point(rng, root, r):
    """Random point of the closed Thompson ball of radius r around the anchor ``root @ root.T``."""
    n = root.shape[0]
    w, q = core._eigh(core._sym(rng.standard_normal((n, n))))
    scale = r * float(rng.uniform(0.2, 1.0)) / max(abs(w[0]), abs(w[-1]))
    return core.spectral_sum(q[None], np.exp(scale * w)[None], root)


_TOL = 1e-10  # the Thompson identities
d = thompson.distance  # the metric d(A, B) the checks are written in


def _pair(rng, dim):
    # narrower spread than random_spd's default: identities at 1e-10 need the headroom
    return random_spd(rng, dim, 0.05, 20.0), random_spd(rng, dim, 0.05, 20.0)


def _on_pair(pred, extra=lambda rng, dim: None):
    """The check ``[pred(A, B, x)]`` on a fresh :func:`_pair` (A, B) and ``x = extra(rng, dim)``."""
    return lambda rng, dim: [pred(*_pair(rng, dim), extra(rng, dim))]


def _on_measure(pred, extra=lambda rng, dim: None):
    """The check ``[pred(mu, x)]`` on a fresh :func:`random_measure` and ``x = extra(rng, dim)``."""
    return lambda rng, dim: [pred(random_measure(rng, dim), extra(rng, dim))]


def _order_bounds(a, b, _):
    # e^-d A <= B <= e^d A and e^-d B <= A <= e^d B at d = d(A, B)
    e = math.exp(d(a, b))
    return all(core.loewner_leq(lo, hi, _TOL)
               for lo, hi in ((a / e, b), (b, e * a), (b / e, a), (a, e * b)))


def _convex_combination(rng, dim):
    # d(sum t_i A_i, sum t_i B_i) <= max_i d(A_i, B_i), and <= d(A_1, B_1) when A_2 = B_2
    mats_a = [random_spd(rng, dim) for _ in range(3)]
    mats_b = [random_spd(rng, dim) for _ in range(3)]
    ts = rng.uniform(0.2, 2.0, 3)
    lhs = d(sum(t * m for t, m in zip(ts, mats_a)), sum(t * m for t, m in zip(ts, mats_b)))
    (a1, a2, _), b1 = mats_a, mats_b[0]
    shared = d(ts[0] * a1 + ts[1] * a2, ts[0] * b1 + ts[1] * a2)
    return [lhs <= max(d(x, y) for x, y in zip(mats_a, mats_b)) + _TOL
            and shared <= d(a1, b1) + _TOL]


def _weighted_bound(rng, dim):
    # the pair (A_1, B_1) is the one further apart
    (a1, b1), (a2, b2) = sorted((_pair(rng, dim), _pair(rng, dim)), key=lambda p: -d(*p))
    c1, c2 = rng.uniform(0.2, 2.0, 2)
    d1, d2 = d(a1, b1), d(a2, b2)
    bound = max((c1 * math.exp(d1) + c2 * w * math.exp(d2)) / (c1 + c2 * w)
                for w in (math.exp(-d(a1, a2)), math.exp(-d(b1, b2))))
    return [math.exp(d(c1 * a1 + c2 * a2, c1 * b1 + c2 * b2)) <= bound + _TOL]


def _contraction_formulas(rng, dim):
    # 0 < affine factor < 1; mean factor <= uniform bound < 1
    a, b = np.exp(rng.uniform(-3.0, 3.0, 2))
    r = math.exp(rng.uniform(-2.0, 2.0))
    s, t, r2 = rng.uniform(0.0, 1.0), rng.uniform(0.05, 1.0), rng.uniform(0.1, 5.0)
    uniform = thompson.contraction_factor_uniform(t, r2)
    return [0.0 < thompson.contraction_factor_affine(a, b, r) < 1.0,
            thompson.contraction_factor_mean(s, t, r2) <= uniform + 1e-12 and uniform < 1.0]


def _contraction_empirical(rng, dim):
    # the iteration map of dirac(s) x {A} contracts a ball around A by the mean factor: on a
    # random pair of the ball, and on the commuting pairs e^(+-r) A, e^(+-r(1 - 1e-4)) A at
    # its edge, whose ratio comes within 3% of the factor
    s, t, r = (float(v) for v in rng.uniform((0.1, 0.1, 0.5), (0.9, 0.9, 2.0)))
    anchor = random_spd(rng, dim, 0.5, 2.0)
    mu = measures.product_measure(monotone.SMeasure.dirac(s), [(1.0, anchor)])
    root = core._frame(anchor)[0]
    pairs = [tuple(random_ball_point(rng, root, r) for _ in range(2))]
    if d(*pairs[0]) <= 1e-8:
        return []
    pairs += [(math.exp(e * r) * anchor, math.exp(e * r * (1.0 - 1e-4)) * anchor)
              for e in (1.0, -1.0)]
    bound = thompson.contraction_factor_mean(s, t, r) + 1e-9
    return [all(d(solver.iteration_map(x, t, mu), solver.iteration_map(y, t, mu)) / d(x, y)
                <= bound for x, y in pairs)]


def _means_case(rng, dim):
    return random_measure(rng, dim, n_atoms=int(rng.integers(2, 6)))


def _lambda(mu):
    return solver.lambda_mean(mu).mean


def _induced(t):
    return lambda mu: solver.induced_mean(t, mu).mean


def _fixed_point(rng, dim):
    # L_t is a fixed point of the iteration map, and the last step t R_t met fp_tol
    mu, t = _means_case(rng, dim), float(rng.uniform(0.1, 1.0))
    rep, tol = solver.induced_mean(t, mu), solver.SolverConfig().fp_tol
    return [d(rep.mean, solver.iteration_map(rep.mean, t, mu)) <= 10.0 * tol
            and t * rep.residual_norm <= tol]


def _sandwich(rng, dim):
    mu, t = _means_case(rng, dim), float(rng.uniform(0.1, 1.0))
    return [solver.sandwich_check(_induced(t)(mu), mu), solver.sandwich_check(_lambda(mu), mu)]


def _karcher_residual(rng, dim):
    mu = _means_case(rng, dim)
    lam = solver.lambda_mean(mu)
    return [lam.residual_norm <= solver.RESIDUAL_TOL
            and np.linalg.norm(solver.karcher_residual(lam.mean, mu)) <= 1e-8]


def _monotone(*solves):
    """The check that each solve(mu) <= solve(bumped), bumped lifting every atom by a PSD matrix."""
    def check(rng, dim):
        mu = _means_case(rng, dim)
        bumped = measures.PMeasure(
            [(w, core._sym(m + _psd_bump(rng, dim)), nu) for w, m, nu in mu.atoms])
        if not measures.measure_leq(mu, bumped):
            return []
        return [all(core.loewner_leq(solve(mu), solve(bumped), 1e-8) for solve in solves)]
    return check


def _means_congruence(rng, dim):
    # Lambda(M mu M^T) = M Lambda(mu) M^T, and the same for L_t at t = 0.3 and 0.8
    mu = _means_case(rng, dim)
    m = random_transform(rng, dim)
    moved = measures.congruence_measure(m, mu)
    pairs = [(core._sym(m @ f(mu) @ m.T), f(moved))
             for f in (_lambda, _induced(0.3), _induced(0.8))]
    return [all(np.linalg.norm(got - want) <= 1e-8 * (1.0 + np.linalg.norm(want))
                for want, got in pairs)]


def _t_monotone(rng, dim):
    # the net decreases to Lambda: Lambda <= L_1/16 <= L_1/8 <= L_1/4, L_1/4 <= L_1/2 <= L_1
    mu = _means_case(rng, dim)
    net = [_lambda(mu)] + [_induced(t)(mu) for t in (0.0625, 0.125, 0.25, 0.5, 1.0)]
    ok = [core.loewner_leq(lo, hi, 1e-9) for lo, hi in zip(net, net[1:])]
    return [all(ok[:3]), ok[3], ok[4]]


def _two_point_oracle(rng, dim):
    # both routes give A # B for two equal atoms under the Lebesgue measure
    a, b = random_spd(rng, dim, 1e-1, 1e1), random_spd(rng, dim, 1e-1, 1e1)
    mu = measures.product_measure(monotone.SMeasure.lebesgue(), [(0.5, a), (0.5, b)])
    geo = core.geometric_mean(a, b, 0.5)
    lam, newton = solver.lambda_mean(mu), divergence.minimize_divergence(mu)
    return [d(lam.mean, geo) <= 1e-8 and lam.residual_norm <= solver.RESIDUAL_TOL
            and len(lam.t_trace) >= 2 and d(newton.mean, geo) <= 1e-6
            and newton.residual_norm <= 1e-9]


def _scalar_karcher(rng, dim):
    # diagonal atoms: Lambda is the weighted geometric mean of each diagonal entry
    k = int(rng.integers(2, 6))
    vals = np.exp(rng.uniform(-2.0, 2.0, (k, dim)))
    w = random_weights(rng, k)
    mu = measures.product_measure(monotone.SMeasure.lebesgue(), list(zip(w, map(np.diag, vals))))
    exact = np.exp(w @ np.log(vals))
    return [np.max(np.abs(np.diag(_lambda(mu)) - exact) / exact) <= 1e-8]


def _power_route(rng, dim):
    # power_mean(t) is lambda_mean under the power(t) measure, at t = 0.2, 0.5 and 0.8
    k = int(rng.integers(2, 5))
    w = random_weights(rng, k)
    sigma = [(w[i], random_spd(rng, dim, 1e-1, 1e1)) for i in range(k)]
    return [all(d(solver.power_mean(t, sigma).mean,
                  _lambda(measures.product_measure(monotone.SMeasure.power(t), sigma))) <= 1e-6
                for t in (0.2, 0.5, 0.8))]


def _positivity(rng, dim):
    # objective(X) >= 0; LD_s(X, A) >= 0, and > 0 when X and A are apart
    mu = random_measure(rng, dim)
    x, a = random_spd(rng, dim, 1e-1, 1e1), random_spd(rng, dim, 1e-1, 1e1)
    v = divergence.logdet_divergence(x, a, float(rng.uniform(0.0, 1.0)))
    return [divergence.objective(x, mu) >= 0.0 and v >= 0.0 and (v > 0.0 or d(x, a) <= 1e-6)]


def _divergence_identity(rng, dim):
    # LD_s(A, A) = 0 at a random s and at both endpoints
    a, s = random_spd(rng, dim), float(rng.uniform(0.0, 1.0))
    return [all(abs(divergence.logdet_divergence(a, a, u)) <= 1e-12 for u in (0.0, s, 1.0))]


def _gradient_fd(rng, dim):
    # central differences of the objective along V match <X^-1 G X^-1, V>
    h = 1e-5
    mu = random_measure(rng, dim)
    x, v = random_spd(rng, dim, 0.5, 2.0), core._sym(rng.standard_normal((dim, dim)))
    num = (divergence.objective(core._sym(x + h * v), mu)
           - divergence.objective(core._sym(x - h * v), mu)) / (2.0 * h)
    xi = np.linalg.inv(x)
    ana = float(np.sum((xi @ divergence.riemannian_gradient(x, mu) @ xi) * v))
    return [abs(num - ana) <= 1e-5 * (1.0 + abs(ana))]


def _geodesic_convexity(rng, dim):
    # strict geodesic convexity of the objective F, on two geodesics g(u) = g0 #_u g1 with
    # ends rc W rc.T, rc rc.T the atoms' arithmetic mean: F(g(u)) lies below the chord at
    # u = 1/4, 1/2, 3/4 (strictly when the ends are apart), and F's second difference at a
    # random u in [0.2, 0.8] is nonnegative; g0 #_u g1 = frame q lam^u q.T frame.T
    mu = random_measure(rng, dim)
    rc = core._frame(core._arith(mu.weights, mu.matrices))[0]
    ok = []
    for _ in range(2):
        g0, g1 = (core._sym(rc @ random_spd(rng, dim, 0.25, 4.0) @ rc.T) for _ in range(2))
        tau = float(rng.uniform(0.2, 0.8))
        f0, f1 = divergence.objective(g0, mu), divergence.objective(g1, mu)
        frame, _, lam, q = core.whitened_eigh(g0, g1[None], core._frame(g1)[0][None])
        f = [divergence.objective(core.spectral_sum(q, lam**u, frame), mu)
             for u in (0.25, 0.5, 0.75, tau - 1e-3, tau, tau + 1e-3)]
        chords = [(1.0 - u) * f0 + u * f1 for u in (0.25, 0.5, 0.75)]
        below = operator.lt if d(g0, g1) > 1e-8 else operator.le
        ok.append(all(below(fu, c + 1e-12 * (1.0 + abs(c))) for fu, c in zip(f, chords))
                  and f[5] - 2.0 * f[4] + f[3] >= -1e-10)
    return ok


# (name, draws, check), in the order verify runs and prints them
CHECKS = (
    ("thompson.identity", "trials", _on_pair(lambda a, b, _: d(a, a) <= 1e-12 and d(a, b) >= 0.0)),
    ("thompson.symmetry", "trials", _on_pair(lambda a, b, _: abs(d(a, b) - d(b, a)) <= _TOL)),
    ("thompson.triangle", "trials",
     _on_pair(lambda a, b, c: d(a, c) <= d(a, b) + d(b, c) + _TOL, random_spd)),
    ("thompson.scaling", "trials",
     _on_pair(lambda a, b, r: abs(d(r * a, r * b) - d(a, b)) <= _TOL,
              lambda rng, dim: float(rng.uniform(0.05, 20.0)))),
    ("thompson.inversion", "trials",
     _on_pair(lambda a, b, _: abs(d(np.linalg.inv(a), np.linalg.inv(b)) - d(a, b)) <= _TOL)),
    ("thompson.congruence", "trials",
     _on_pair(lambda a, b, m: abs(d(core._sym(m @ a @ m.T), core._sym(m @ b @ m.T)) - d(a, b))
              <= _TOL, random_transform)),
    ("thompson.order_bounds", "trials", _on_pair(_order_bounds)),
    ("thompson.convex_combination", "trials", _convex_combination),
    ("thompson.weighted_bound", "trials", _weighted_bound),
    ("thompson.contraction_formulas", "trials", _contraction_formulas),
    ("thompson.contraction_empirical", "trials", _contraction_empirical),
    ("means.fixed_point", "heavy", _fixed_point),
    ("means.sandwich", "heavy", _sandwich),
    ("means.karcher_residual", "heavy", _karcher_residual),
    ("means.monotone_induced", "heavy", _monotone(_induced(0.25), _induced(0.5), _induced(1.0))),
    ("means.monotone_lambda", "heavy", _monotone(_lambda)),
    ("means.congruence", "heavy", _means_congruence),
    ("means.t_monotone", "heavy", _t_monotone),
    ("means.two_point_oracle", "heavy", _two_point_oracle),
    ("means.scalar_karcher", "heavy", _scalar_karcher),
    ("means.power_route", "heavy", _power_route),
    ("divergence.positivity", "trials", _positivity),
    ("divergence.identity", "trials", _divergence_identity),
    ("divergence.gradient_identity", "trials", _on_measure(
        lambda mu, x: np.array_equal(divergence.riemannian_gradient(x, mu),
                                     -solver.karcher_residual(x, mu)),
        lambda rng, dim: random_spd(rng, dim, 1e-1, 1e1))),
    ("divergence.gradient_fd", "trials", _gradient_fd),
    ("divergence.argmin_equivalence", "heavy", _on_measure(
        lambda mu, _: d(divergence.minimize_divergence(mu).mean, _lambda(mu)) <= 1e-6)),
    ("divergence.geodesic_convexity", "trials", _geodesic_convexity),
)


def run_suite(suite, seed, dim, trials, out=print):
    """Run one named suite (or ``all``); returns True when every check passed.

    Raises SpdMeansError for an unknown suite, unless ``trials`` and ``dim`` are whole
    numbers of at least 1 (a run over nothing would pass vacuously), and unless ``seed``
    is a whole number of at least 0, as numpy requires.
    """
    if suite not in SUITES:
        raise SpdMeansError(f"unknown suite {suite!r}, expected one of {SUITES}")
    if not (core._is_count(trials) and core._is_count(dim) and core._is_count(seed, 0)):
        raise SpdMeansError("verify needs trials >= 1, dim >= 1 and seed >= 0, all whole "
                            f"numbers, got {trials!r}, {dim!r} and {seed!r}")
    seed, dim, trials = int(seed), int(dim), int(trials)
    rng = np.random.default_rng(seed)
    passed = total = 0
    for name, draws, check in CHECKS:
        if suite == "all" or name.startswith(suite + "."):
            n = trials if draws == "trials" else max(1, trials // 10)
            results = [bool(r) for _ in range(n) for r in check(rng, dim)]
            passed, total = passed + sum(results), total + len(results)
            out(f"{name}: {sum(results)}/{len(results)}")
    out(f"suite {suite}: {'PASS' if passed == total else 'FAIL'} ({passed}/{total})")
    return passed == total
