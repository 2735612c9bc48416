"""Seeded, reproducible invariant suites behind ``spdmeans verify``.

Each suite draws its data from one ``numpy.random.default_rng(seed)``
stream and prints one ``name: passed/total`` line per check, so two runs
with the same flags emit byte-identical output.  Random SPD matrices are
built as ``Q D Q.T`` with Q from the QR factorization of a seeded Gaussian
matrix and D log-uniform, which keeps conditioning controlled and
documented.

Checks that compare against closed forms (geometric mean, scalar means,
power means) draw from a narrower eigenvalue range than the structural
checks: the structural identities hold exactly for the discretized
measures at any conditioning, while closed-form agreement also spends the
quadrature error budget.
"""

import math

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


def random_weights(rng, k):
    """Random simplex weights: uniform in [0.5, 1.5], normalized, the last one 1 minus the rest."""
    w = rng.uniform(0.5, 1.5, k)
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
        v = rng.uniform(0.2, 1.0, k)
        v = v / v.sum()
        v[-1] = 1.0 - v[:-1].sum()
        s = rng.uniform(0.0, 1.0, k)
        return monotone.SMeasure.from_atoms(list(zip(s, v)))
    if kind == 2:
        return monotone.SMeasure.lebesgue()
    return monotone.SMeasure.power(float(rng.uniform(0.15, 0.85)))


def random_measure(rng, dim, n_atoms=3, lo=1e-1, hi=1e1):
    w = random_weights(rng, n_atoms)
    return measures.PMeasure(
        [(w[i], random_spd(rng, dim, lo, hi), random_smeasure(rng)) for i in range(n_atoms)]
    )


def _psd_bump(rng, dim, scale=0.3):
    g = rng.standard_normal((dim, dim))
    return scale * core._sym(g @ g.T)


class _Tally:
    def __init__(self, out):
        self.out = out
        self.total_pass = 0
        self.total = 0

    def check(self, name, results):
        good = sum(1 for r in results if r)
        self.total_pass += good
        self.total += len(results)
        self.out(f"{name}: {good}/{len(results)}")

    def ok(self):
        return self.total_pass == self.total


def _suite_thompson(rng, dim, trials, tally):
    tol = 1e-10
    d = thompson.distance

    # narrower spread than the generic generator: identity checks at 1e-10
    # need the conditioning headroom
    def trial_case():
        return random_spd(rng, dim, 0.05, 20.0), random_spd(rng, dim, 0.05, 20.0)

    tally.check(
        "thompson.identity",
        [d(a, a) <= 1e-12 for a, _ in (trial_case() for _ in range(trials))],
    )
    res_sym, res_tri, res_scale, res_inv, res_cong, res_exp = ([] for _ in range(6))
    for _ in range(trials):
        a, b = trial_case()
        c = random_spd(rng, dim)
        dab = d(a, b)
        res_sym.append(abs(dab - d(b, a)) <= tol)
        res_tri.append(d(a, c) <= dab + d(b, c) + tol)
        r = float(rng.uniform(0.1, 10.0))
        res_scale.append(abs(d(r * a, r * b) - dab) <= tol)
        res_inv.append(abs(d(np.linalg.inv(a), np.linalg.inv(b)) - dab) <= tol)
        m = random_transform(rng, dim)
        res_cong.append(abs(d(core._sym(m @ a @ m.T), core._sym(m @ b @ m.T)) - dab) <= tol)
        e = math.exp(dab)
        res_exp.append(
            core.loewner_leq(a / e, b, tol) and core.loewner_leq(b, e * a, tol)
        )
    tally.check("thompson.symmetry", res_sym)
    tally.check("thompson.triangle", res_tri)
    tally.check("thompson.scaling", res_scale)
    tally.check("thompson.inversion", res_inv)
    tally.check("thompson.congruence", res_cong)
    tally.check("thompson.order_bounds", res_exp)

    # convexity property: d(sum t_i A_i, sum t_i B_i) <= max_i d(A_i, B_i)
    res = []
    for _ in range(trials):
        mats_a = [random_spd(rng, dim) for _ in range(3)]
        mats_b = [random_spd(rng, dim) for _ in range(3)]
        ts = rng.uniform(0.2, 2.0, 3)
        lhs = d(sum(t * m for t, m in zip(ts, mats_a)), sum(t * m for t, m in zip(ts, mats_b)))
        res.append(lhs <= max(d(x, y) for x, y in zip(mats_a, mats_b)) + tol)
    tally.check("thompson.convex_combination", res)

    # weighted two-term bound
    res = []
    for _ in range(trials):
        a1, b1 = trial_case()
        a2, b2 = trial_case()
        if d(a1, b1) < d(a2, b2):
            a1, b1, a2, b2 = a2, b2, a1, b1
        c1, c2 = rng.uniform(0.2, 2.0, 2)
        d1, d2 = d(a1, b1), d(a2, b2)
        wa = math.exp(-d(a1, a2))
        wb = math.exp(-d(b1, b2))
        bound = max(
            (c1 * math.exp(d1) + c2 * wa * math.exp(d2)) / (c1 + c2 * wa),
            (c1 * math.exp(d1) + c2 * wb * math.exp(d2)) / (c1 + c2 * wb),
        )
        lhs = math.exp(d(c1 * a1 + c2 * a2, c1 * b1 + c2 * b2))
        res.append(lhs <= bound + tol)
    tally.check("thompson.weighted_bound", res)

    # contraction factor formulas and an empirical contraction ratio
    res_formula, res_emp = [], []
    for _ in range(trials):
        aa, bb, r = rng.uniform(0.1, 3.0, 3)
        res_formula.append(0.0 < thompson.contraction_factor_affine(aa, bb, r) < 1.0)
        s = float(rng.uniform(0.1, 0.9))
        t = float(rng.uniform(0.1, 0.9))
        r = float(rng.uniform(0.5, 2.0))
        rho = thompson.contraction_factor_mean(s, t, r)
        res_formula.append(rho <= thompson.contraction_factor_uniform(t, r) + 1e-12)
        anchor = random_spd(rng, dim, 0.5, 2.0)
        mu = measures.product_measure(monotone.SMeasure.dirac(s), [(1.0, anchor)])
        x, y = (_ball_point(rng, anchor, r) for _ in range(2))
        dxy = d(x, y)
        if dxy > 1e-8:
            ratio = d(solver.iteration_map(x, t, mu), solver.iteration_map(y, t, mu)) / dxy
            res_emp.append(ratio <= rho + 1e-9)
    tally.check("thompson.contraction_formulas", res_formula)
    tally.check("thompson.contraction_empirical", res_emp)


def _ball_point(rng, anchor, r):
    """Random point of the closed Thompson ball of radius r around the anchor."""
    n = anchor.shape[0]
    w, q = core._eigh(core._sym(rng.standard_normal((n, n))))
    scale = r * float(rng.uniform(0.2, 1.0)) / max(abs(w[0]), abs(w[-1]))
    return core.spectral_sum(q[None], np.exp(scale * w)[None], core.sqrt_pair(anchor)[0])


def _suite_means(rng, dim, trials, tally):
    heavy = max(1, trials // 10)
    cfg = solver.SolverConfig()
    d = thompson.distance

    res_fix, res_sand, res_mono_l, res_mono_lam, res_cong, res_tmono = ([] for _ in range(6))
    res_residual = []
    for _ in range(heavy):
        mu = random_measure(rng, dim, n_atoms=int(rng.integers(2, 5)))
        rep = solver.induced_mean(0.5, mu, cfg)
        res_fix.append(
            d(rep.mean, solver.iteration_map(rep.mean, 0.5, mu)) <= 10.0 * cfg.fp_tol
        )
        res_sand.append(solver.sandwich_check(rep.mean, mu))

        lam = solver.lambda_mean(mu, cfg)
        res_sand.append(solver.sandwich_check(lam.mean, mu))
        res_residual.append(lam.residual_norm <= solver.RESIDUAL_TOL)

        bumped = measures.PMeasure(
            [(w, core._sym(m + _psd_bump(rng, dim)), nu) for w, m, nu in mu.atoms]
        )
        if measures.measure_leq(mu, bumped):
            rep2 = solver.induced_mean(0.5, bumped, cfg)
            res_mono_l.append(core.loewner_leq(rep.mean, rep2.mean, 1e-8))
            lam2 = solver.lambda_mean(bumped, cfg)
            res_mono_lam.append(core.loewner_leq(lam.mean, lam2.mean, 1e-8))

        m = random_transform(rng, dim)
        lam3 = solver.lambda_mean(measures.congruence_measure(m, mu), cfg)
        target = core._sym(m @ lam.mean @ m.T)
        res_cong.append(
            np.linalg.norm(lam3.mean - target) <= 1e-8 * (1.0 + np.linalg.norm(target))
        )

        l14 = solver.induced_mean(0.25, mu, cfg).mean
        l12 = rep.mean
        l1 = solver.induced_mean(1.0, mu, cfg).mean
        res_tmono.append(core.loewner_leq(lam.mean, l14, 1e-9))
        res_tmono.append(core.loewner_leq(l14, l12, 1e-9))
        res_tmono.append(core.loewner_leq(l12, l1, 1e-9))
    tally.check("means.fixed_point", res_fix)
    tally.check("means.sandwich", res_sand)
    tally.check("means.karcher_residual", res_residual)
    tally.check("means.monotone_induced", res_mono_l)
    tally.check("means.monotone_lambda", res_mono_lam)
    tally.check("means.congruence", res_cong)
    tally.check("means.t_monotone", res_tmono)

    res = []
    for _ in range(heavy):
        a, b = random_spd(rng, dim, 1e-1, 1e1), random_spd(rng, dim, 1e-1, 1e1)
        mu = measures.product_measure(monotone.SMeasure.lebesgue(), [(0.5, a), (0.5, b)])
        res.append(
            d(solver.lambda_mean(mu, cfg).mean, core.geometric_mean(a, b, 0.5)) <= 1e-6
        )
    tally.check("means.two_point_oracle", res)

    res = []
    for _ in range(heavy):
        k = int(rng.integers(2, 5))
        vals = np.exp(rng.uniform(-2.0, 2.0, (k, dim)))
        w = random_weights(rng, k)
        mu = measures.product_measure(
            monotone.SMeasure.lebesgue(),
            [(w[i], np.diag(vals[i])) for i in range(k)],
        )
        exact = np.exp(np.sum(w[:, None] * np.log(vals), axis=0))
        got = np.diag(solver.lambda_mean(mu, cfg).mean)
        res.append(np.max(np.abs(got - exact) / exact) <= 1e-8)
    tally.check("means.scalar_karcher", res)

    res = []
    for _ in range(heavy):
        k = int(rng.integers(2, 4))
        w = random_weights(rng, k)
        sigma = [(w[i], random_spd(rng, dim, 1e-1, 1e1)) for i in range(k)]
        direct = solver.power_mean(0.5, sigma, cfg)
        routed = solver.lambda_mean(
            measures.product_measure(monotone.SMeasure.power(0.5), sigma), cfg
        )
        res.append(d(direct.mean, routed.mean) <= 1e-6)
    tally.check("means.power_route", res)


def _suite_divergence(rng, dim, trials, tally):
    heavy = max(1, trials // 10)
    d = thompson.distance

    res_pos, res_id, res_grad = [], [], []
    for _ in range(trials):
        mu = random_measure(rng, dim)
        x = random_spd(rng, dim, 1e-1, 1e1)
        res_pos.append(divergence.objective(x, mu) >= 0.0)
        a = random_spd(rng, dim)
        s = float(rng.uniform(0.0, 1.0))
        res_id.append(abs(divergence.logdet_divergence(a, a, s)) <= 1e-10)
        g = divergence.riemannian_gradient(x, mu)
        res_grad.append(np.array_equal(g, -solver.karcher_residual(x, mu)))
    tally.check("divergence.positivity", res_pos)
    tally.check("divergence.identity", res_id)
    tally.check("divergence.gradient_identity", res_grad)

    res = []
    h = 1e-5
    for _ in range(trials):
        mu = random_measure(rng, dim)
        x = random_spd(rng, dim, 0.5, 2.0)
        v = core._sym(rng.standard_normal((dim, dim)))
        num = (
            divergence.objective(core._sym(x + h * v), mu)
            - divergence.objective(core._sym(x - h * v), mu)
        ) / (2.0 * h)
        g = divergence.riemannian_gradient(x, mu)
        xi = np.linalg.inv(x)
        ana = float(np.sum((xi @ g @ xi) * v))
        res.append(abs(num - ana) <= 1e-5 * (1.0 + abs(ana)))
    tally.check("divergence.gradient_fd", res)

    res = []
    for _ in range(heavy):
        mu = random_measure(rng, dim)
        got = divergence.minimize_divergence(mu)
        ref = solver.lambda_mean(mu)
        res.append(d(got.mean, ref.mean) <= 1e-6)
    tally.check("divergence.argmin_equivalence", res)

    mu = random_measure(rng, dim)
    tally.check(
        "divergence.geodesic_convexity",
        [divergence.geodesic_convexity_check(mu, trials, seed=int(rng.integers(1 << 31)))],
    )

    res = []
    hh = 1e-3
    for _ in range(trials):
        mu = random_measure(rng, dim)
        g0 = random_spd(rng, dim, 0.5, 2.0)
        g1 = random_spd(rng, dim, 0.5, 2.0)
        tau = float(rng.uniform(0.2, 0.8))
        f = lambda u: divergence.objective(core.geometric_mean(g0, g1, u), mu)
        res.append(f(tau + hh) - 2.0 * f(tau) + f(tau - hh) >= -1e-10)
    tally.check("divergence.second_difference", res)


def run_suite(suite, seed, dim, trials, out=print):
    """Run one named suite (or ``all``); returns True when every check passed.

    Raises SpdMeansError for an unknown suite, for ``trials < 1`` or ``dim < 1``, where
    a run would check nothing, and for a negative seed, which numpy rejects.
    """
    if suite not in SUITES:
        raise SpdMeansError(f"unknown suite {suite!r}, expected one of {SUITES}")
    if not (trials >= 1 and dim >= 1 and seed >= 0):
        raise SpdMeansError("verify needs trials >= 1, dim >= 1 and seed >= 0, "
                            f"got {trials}, {dim} and {seed}")
    rng = np.random.default_rng(seed)
    tally = _Tally(out)
    if suite in ("thompson", "all"):
        _suite_thompson(rng, dim, trials, tally)
    if suite in ("means", "all"):
        _suite_means(rng, dim, trials, tally)
    if suite in ("divergence", "all"):
        _suite_divergence(rng, dim, trials, tally)
    status = "PASS" if tally.ok() else "FAIL"
    out(f"suite {suite}: {status} ({tally.total_pass}/{tally.total})")
    return tally.ok()
