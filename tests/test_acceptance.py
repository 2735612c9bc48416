"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else; the random data is
seeded so every run checks the same instances.
"""

import math
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from conftest import (
    conditioned_transform,
    rand_measure,
    rand_psd,
    rand_spd,
    rand_weights,
    subprocess_env,
    sym,
    thompson_ball_point,
)
from spdmeans import (
    PMeasure,
    SMeasure,
    SolverConfig,
    contraction_factor_mean,
    distance,
    geodesic_convexity_check,
    geometric_mean,
    induced_mean,
    iteration_map,
    karcher_residual,
    lambda_mean,
    loewner_leq,
    measure_leq,
    minimize_divergence,
    objective,
    power_mean,
    product_measure,
    riemannian_gradient,
    weighted_arith,
    weighted_harm,
)

CFG = SolverConfig()


def report(num, name, ok, detail):
    print(f"[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


@pytest.fixture(scope="module")
def random_suite():
    """Shared random measures with their computed Karcher means."""
    rng = np.random.default_rng(2024)
    suite = []
    for i in range(20):
        dim = int(rng.integers(2, 7)) if i < 18 else 8
        mu = rand_measure(rng, dim, n_atoms=int(rng.integers(2, 6)))
        suite.append((mu, lambda_mean(mu, CFG)))
    return suite


def test_criterion_01_two_point_karcher_oracle():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(50):
        dim = int(rng.integers(2, 7))
        a, b = rand_spd(rng, dim), rand_spd(rng, dim)
        mu = product_measure(SMeasure.lebesgue(64), [(0.5, a), (0.5, b)])
        got = lambda_mean(mu, CFG).mean
        worst = max(worst, distance(got, geometric_mean(a, b, 0.5)))
    report(1, "two-point-karcher-oracle", worst <= 1e-6, f"max thompson err {worst:.3e}")


def test_criterion_02_scalar_karcher_oracle():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(10):
        k = int(rng.integers(2, 6))
        dim = int(rng.integers(1, 5))
        vals = np.exp(rng.uniform(-2.0, 2.0, (k, dim)))
        w = rand_weights(rng, k)
        mu = product_measure(
            SMeasure.lebesgue(64), [(w[i], np.diag(vals[i])) for i in range(k)]
        )
        got = np.diag(lambda_mean(mu, CFG).mean)
        exact = np.exp(w @ np.log(vals))
        worst = max(worst, float(np.max(np.abs(got - exact) / exact)))
    report(2, "scalar-karcher-oracle", worst <= 1e-8, f"max rel err {worst:.3e}")


def test_criterion_03_karcher_residual(random_suite):
    worst = max(
        float(np.linalg.norm(karcher_residual(rep.mean, mu))) for mu, rep in random_suite
    )
    report(3, "karcher-residual", worst <= 1e-8, f"max residual {worst:.3e}")


def test_criterion_04_argmin_equivalence():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(30):
        dim = int(rng.integers(2, 6))
        mu = rand_measure(rng, dim)
        lam = lambda_mean(mu, CFG).mean
        opt = minimize_divergence(mu).mean
        worst = max(worst, distance(lam, opt))
    report(4, "argmin-equivalence", worst <= 1e-6, f"max thompson gap {worst:.3e}")


def test_criterion_05_gradient_check():
    rng = np.random.default_rng(5)
    h = 1e-5
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 5))
        mu = rand_measure(rng, dim)
        x = rand_spd(rng, dim, 0.5, 2.0)
        v = sym(rng.standard_normal((dim, dim)))
        num = (objective(sym(x + h * v), mu) - objective(sym(x - h * v), mu)) / (2 * h)
        g = riemannian_gradient(x, mu)
        xi = np.linalg.inv(x)
        ana = float(np.sum((xi @ g @ xi) * v))
        worst = max(worst, abs(num - ana) / (1.0 + abs(ana)))
    report(5, "gradient-check", worst <= 1e-5, f"max rel err {worst:.3e}")


def test_criterion_06_monotonicity():
    rng = np.random.default_rng(6)
    ok = True
    for _ in range(50):
        dim = int(rng.integers(2, 5))
        mu1 = rand_measure(rng, dim, n_atoms=int(rng.integers(2, 4)))
        mu2 = PMeasure([(w, sym(m + rand_psd(rng, dim)), nu) for w, m, nu in mu1.atoms])
        ok = ok and measure_leq(mu1, mu2)
        ok = ok and loewner_leq(lambda_mean(mu1, CFG).mean, lambda_mean(mu2, CFG).mean, 1e-8)
        for t in (0.25, 0.5, 1.0):
            l1 = induced_mean(t, mu1, CFG).mean
            l2 = induced_mean(t, mu2, CFG).mean
            ok = ok and loewner_leq(l1, l2, 1e-8)
        if not ok:
            break
    report(6, "monotonicity", ok, "lambda and induced means ordered, 50 trials")


def test_criterion_07_thompson_axioms():
    rng = np.random.default_rng(7)
    tol = 1e-10
    ok = True
    for _ in range(200):
        n = int(rng.integers(2, 6))
        a, b, c = (rand_spd(rng, n, 0.05, 20.0) for _ in range(3))
        dab = distance(a, b)
        ok = ok and dab >= 0.0
        ok = ok and abs(dab - distance(b, a)) <= tol
        ok = ok and distance(a, c) <= dab + distance(b, c) + tol
        r = float(rng.uniform(0.05, 20.0))
        ok = ok and abs(distance(r * a, r * b) - dab) <= tol
        ok = ok and abs(distance(np.linalg.inv(a), np.linalg.inv(b)) - dab) <= tol
        m = conditioned_transform(rng, n)
        ok = ok and abs(distance(sym(m @ a @ m.T), sym(m @ b @ m.T)) - dab) <= tol
        ts = rng.uniform(0.2, 2.0, 2)
        lhs = distance(ts[0] * a + ts[1] * c, ts[0] * b + ts[1] * c)
        ok = ok and lhs <= max(dab, 0.0) + tol
        e = math.exp(dab)
        ok = ok and loewner_leq(a, e * b, tol) and loewner_leq(b, e * a, tol)
        if not ok:
            break
    report(7, "thompson-axioms", ok, "metric axioms and invariances, 200 trials")


def test_criterion_08_contraction_formulas():
    rng = np.random.default_rng(8)
    worst = -np.inf
    ok = True
    grid = np.round(np.arange(0.1, 0.95, 0.1), 10)
    for s in grid:
        for t in grid:
            for r in (0.5, 1.0, 2.0):
                rho = contraction_factor_mean(float(s), float(t), float(r))
                anchor = rand_spd(rng, 3, 0.5, 2.0)
                mu = product_measure(SMeasure.dirac(float(s)), [(1.0, anchor)])
                for _ in range(3):
                    x = thompson_ball_point(rng, anchor, r)
                    y = thompson_ball_point(rng, anchor, r)
                    dxy = distance(x, y)
                    if dxy < 1e-9:
                        continue
                    ratio = distance(
                        iteration_map(x, float(t), mu), iteration_map(y, float(t), mu)
                    ) / dxy
                    worst = max(worst, ratio - rho)
                    ok = ok and ratio <= rho + 1e-9
    report(8, "contraction-formulas", ok, f"max ratio excess {worst:.3e}")


def test_criterion_09_power_mean_route():
    rng = np.random.default_rng(9)
    worst = 0.0
    mass_err = 0.0
    for t in (0.2, 0.5, 0.8):
        mass_err = max(mass_err, abs(float(SMeasure.power(t).weights.sum()) - 1.0))
        for _ in range(3):
            dim = int(rng.integers(2, 6))
            k = int(rng.integers(2, 5))
            w = rand_weights(rng, k)
            sigma = [(w[i], rand_spd(rng, dim)) for i in range(k)]
            direct = power_mean(t, sigma, CFG).mean
            routed = lambda_mean(product_measure(SMeasure.power(t), sigma), CFG).mean
            worst = max(worst, distance(direct, routed))
    ok = worst <= 1e-6 and mass_err <= 1e-8
    report(9, "power-mean-route", ok, f"max gap {worst:.3e}, mass err {mass_err:.1e}")


def test_criterion_10_sandwich_bounds(random_suite):
    ok = True
    for mu, rep in random_suite:
        pairs = mu.matrix_pairs()
        harm, arith = weighted_harm(pairs), weighted_arith(pairs)
        ok = ok and loewner_leq(harm, rep.mean, 1e-9) and loewner_leq(rep.mean, arith, 1e-9)
        lt = induced_mean(0.5, mu, CFG).mean
        ok = ok and loewner_leq(harm, lt, 1e-9) and loewner_leq(lt, arith, 1e-9)
    report(10, "sandwich-bounds", ok, "harmonic <= L_t, Lambda <= arithmetic")


def test_criterion_11_t_net_behavior(random_suite):
    ok = True
    for mu, rep in random_suite[:8]:
        means = [induced_mean(t, mu, CFG).mean for t in (1.0, 0.5, 0.25, 0.125, 0.0625)]
        for hi, lo in zip(means, means[1:]):
            ok = ok and loewner_leq(lo, hi, 1e-9)
        ok = ok and loewner_leq(rep.mean, means[-1], 1e-9)
    report(11, "t-net-decreasing", ok, "L_t decreasing toward Lambda, tol 1e-9")


def test_criterion_12_geodesic_convexity():
    rng = np.random.default_rng(12)
    ok = True
    for _ in range(2):
        mu = rand_measure(rng, 3)
        ok = ok and geodesic_convexity_check(mu, 1000, seed=int(rng.integers(1 << 31)))
    report(12, "geodesic-convexity", ok, "2 x 1000 random geodesic triples")


def test_criterion_13_verify_determinism():
    # the first run must also match the checked-in output of this command
    cmd = [
        sys.executable, "-m", "spdmeans", "verify",
        "--seed", "42", "--dim", "4", "--trials", "50", "--suite", "all",
    ]
    expected = (pathlib.Path(__file__).parent / "verify_all_seed42_dim4_trials50.txt").read_text()
    first = subprocess.run(cmd, capture_output=True, text=True, env=subprocess_env())
    second = subprocess.run(cmd, capture_output=True, text=True, env=subprocess_env())
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout == expected
    )
    report(
        13, "verify-determinism", ok,
        f"exit {first.returncode}/{second.returncode}, "
        f"{'byte-identical' if first.stdout == second.stdout else 'OUTPUT DIFFERS'}, "
        f"{'matches' if first.stdout == expected else 'DIFFERS FROM'} the checked-in output",
    )
