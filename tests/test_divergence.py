import math

import numpy as np
import pytest

from conftest import assert_check, dirac_lebesgue_pair, rand_measure, rand_spd
from spdmeans import (
    DomainError,
    NotPositiveDefinite,
    PMeasure,
    SMeasure,
    SolverConfig,
    distance,
    geometric_mean,
    lambda_mean,
    logdet_divergence,
    minimize_divergence,
    objective,
    product_measure,
    riemannian_gradient,
)
from spdmeans import core, solver
from spdmeans.verify import random_measure


def test_divergence_scalar_endpoint_value():
    # LD_1(x, a) = a/x - 1 - log(a/x); at x = 1, a = e this is e - 2
    got = logdet_divergence(np.array([[1.0]]), np.array([[math.e]]), 1.0)
    assert abs(got - (math.e - 2.0)) <= 1e-12


def test_divergence_matches_trace_form():
    # brute-force oracle: (tr log((1-s)A+sX) - tr log(X #_(1-s) A)) / (s(1-s))
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        x, a = rand_spd(rng, n), rand_spd(rng, n)
        s = float(rng.uniform(0.05, 0.95))
        mix = (1 - s) * a + s * x
        geo = geometric_mean(x, a, 1.0 - s)
        brute = (
            float(np.sum(np.log(np.linalg.eigvalsh(mix))))
            - float(np.sum(np.log(np.linalg.eigvalsh(geo))))
        ) / (s * (1 - s))
        got = logdet_divergence(x, a, s)
        assert abs(got - brute) <= 1e-10 * (1 + abs(brute))


def test_divergence_endpoint_continuity():
    rng = np.random.default_rng(3)
    for _ in range(10):
        x, a = rand_spd(rng, 3, 0.5, 2.0), rand_spd(rng, 3, 0.5, 2.0)
        assert abs(logdet_divergence(x, a, 1e-6) - logdet_divergence(x, a, 0.0)) <= 1e-4
        assert abs(logdet_divergence(x, a, 1.0 - 1e-6) - logdet_divergence(x, a, 1.0)) <= 1e-4


def test_objective_examples():
    rng = np.random.default_rng(5)
    a = rand_spd(rng, 3)
    mu = product_measure(SMeasure.lebesgue(32), [(1.0, a)])
    assert objective(a, mu) <= 1e-12
    s0 = 0.35
    single = product_measure(SMeasure.dirac(s0), [(1.0, a)])
    x = rand_spd(rng, 3)
    assert abs(objective(x, single) - logdet_divergence(x, a, s0)) <= 1e-12


def test_gradient_dirac_one_case():
    # measure dirac(1) x {A}: gradient is -(A - X)
    rng = np.random.default_rng(7)
    a = rand_spd(rng, 3)
    x = rand_spd(rng, 3)
    mu = product_measure(SMeasure.dirac(1.0), [(1.0, a)])
    g = riemannian_gradient(x, mu)
    assert np.linalg.norm(g + (a - x)) <= 1e-12 * (1 + np.linalg.norm(a))


def test_gradient_finite_differences():
    assert_check("divergence.gradient_fd", 8, 100, (2, 3, 4))


def test_minimize_agrees_with_lambda_mean():
    assert_check("divergence.argmin_equivalence", 12, 5, (2, 3, 4))


def test_minimize_two_point_geometric():
    assert_check("means.two_point_oracle", 10, 1, (3,))


def test_minimize_single_atom():
    rng = np.random.default_rng(9)
    a = rand_spd(rng, 4)
    mu = product_measure(SMeasure.lebesgue(32), [(1.0, a)])
    rep = minimize_divergence(mu)
    assert distance(rep.mean, a) <= 1e-8


def test_minimize_objective_strictly_decreases():
    rng = np.random.default_rng(11)
    mu = rand_measure(rng, 3)
    history = []
    minimize_divergence(mu, SolverConfig(grad_tol=1e-6), on_step=lambda x, f, g: history.append(f))
    assert len(history) >= 2
    assert all(b < a for a, b in zip(history, history[1:]))
    f0 = objective(sum(w * m for w, m in mu.matrix_pairs()), mu)
    assert history[-1] < f0


def test_minimize_nonconvergence_budget():
    from spdmeans import NonConvergence

    rng = np.random.default_rng(15)
    mu = rand_measure(rng, 3, n_atoms=3)
    with pytest.raises(NonConvergence) as info:
        minimize_divergence(mu, SolverConfig(max_iters=1))
    assert info.value.iterations == 1


@pytest.mark.parametrize("seed", [13, 16, 25])
def test_minimize_wide_spread_stays_positive_definite(seed):
    # whitened eigenvalues spread past 1e2, where a full exponential
    # first-order step leaves the cone
    mu = dirac_lebesgue_pair(seed)
    assert distance(minimize_divergence(mu).mean, lambda_mean(mu).mean) <= 1e-6


@pytest.mark.parametrize("dim, seed, lo, hi", [
    (4, 6, 1e-5, 1e5), (4, 8, 1e-5, 1e5), (6, 1007, 1e-3, 1e3), (6, 1019, 1e-3, 1e3),
])
def test_minimize_ill_conditioned_converges(dim, seed, lo, hi):
    mu = random_measure(np.random.default_rng(seed), dim, 3, lo=lo, hi=hi)
    rep = minimize_divergence(mu)
    assert rep.iterations <= 10
    assert distance(rep.mean, lambda_mean(mu).mean) <= 1e-6


def test_minimize_newton_step_count_wide_band():
    for seed in range(12):
        mu = random_measure(np.random.default_rng(seed), 4, 3, lo=1e-3, hi=1e3)
        assert minimize_divergence(mu).iterations <= 10


def test_minimize_evaluates_objective_only_for_on_step(monkeypatch):
    # the hook reads each step's cached whitened spectra: one mu.divergence call per
    # step, no further gate or whitening, and f exactly as objective(x, mu) gives it
    calls = {"divergence": 0, "_spd": 0, "whitened_eigh": 0}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(module, name, wrapper)

    counted(PMeasure, "divergence")
    counted(core, "_spd")
    counted(solver, "whitened_eigh")
    mu = rand_measure(np.random.default_rng(16), 3)
    rep = minimize_divergence(mu)
    plain = dict(calls)
    assert plain["divergence"] == 0
    steps = []
    minimize_divergence(mu, on_step=lambda x, f, g: steps.append((x, f)))
    assert calls["divergence"] == len(steps) == rep.iterations
    assert calls["_spd"] == 2 * plain["_spd"]
    assert calls["whitened_eigh"] == 2 * plain["whitened_eigh"]
    monkeypatch.undo()
    assert all(f == objective(x, mu) for x, f in steps)


def test_minimize_on_step_reports_each_accepted_step():
    # the public hook is called once per accepted step; its last call is at the reported
    # mean bit for bit, with the reported whitened gradient norm and the objective there
    for seed, (lo, hi) in ((0, (0.1, 10.0)), (1, (1e-3, 1e3)), (2, (1e-3, 1e3))):
        mu = random_measure(np.random.default_rng(seed), 4, 3, lo=lo, hi=hi)
        steps = []
        rep = minimize_divergence(mu, on_step=lambda x, f, gnorm: steps.append((x, f, gnorm)))
        assert len(steps) == rep.iterations >= 1
        x, f, gnorm = steps[-1]
        assert x.tobytes() == rep.mean.tobytes()
        assert gnorm == rep.residual_norm
        assert f == objective(rep.mean, mu)


def test_geodesic_convexity_trivial_and_random():
    rng = np.random.default_rng(13)
    mu = rand_measure(rng, 3)
    g0 = rand_spd(rng, 3)
    f0 = objective(g0, mu)
    for tau in (0.25, 0.5, 0.75):
        fm = objective(geometric_mean(g0, g0, tau), mu)
        assert abs(fm - f0) <= 1e-10 * (1 + abs(f0))
    # the Tier-1 grid runs the row at dim 3; these 40 geodesics are at dims 2 and 4
    assert_check("divergence.geodesic_convexity", 13, 20, (2, 4))


def test_geodesic_convexity_scalar_case():
    # scalars: F along x = exp((1-tau) log x0 + tau log x1) is convex in tau
    mu = product_measure(
        SMeasure.lebesgue(32), [(0.5, np.array([[2.0]])), (0.5, np.array([[0.3]]))]
    )
    taus = np.linspace(0.0, 1.0, 21)
    g0, g1 = np.array([[0.5]]), np.array([[7.0]])
    vals = [objective(geometric_mean(g0, g1, float(t)), mu) for t in taus]
    for i in range(1, len(vals) - 1):
        assert vals[i] <= 0.5 * (vals[i - 1] + vals[i + 1]) + 1e-12


def _ld_mpmath(s, w):
    """LD_s per whitened eigenvalue w in 50-digit arithmetic, its endpoints in closed form."""
    from mpmath import log, mp, mpf

    with mp.workdps(50):
        s, w = mpf(s), mpf(w)
        if s == 0:
            return 1 / w - 1 + log(w)
        if s == 1:
            return w - 1 - log(w)
        return (log((1 - s) * w + s) - (1 - s) * log(w)) / (s * (1 - s))


def test_logdet_divergence_near_its_minimum_matches_mpmath():
    # near w = 1 the logs of log((1-s) w + s) - (1-s) log w, and of the endpoint terms,
    # cancel, and near s = 0 or 1 the difference of the logs cancels to O(s(1-s)).
    # Taking the difference of the logs missed 50-digit arithmetic by more than 1e-7 on
    # 42 of 96 points with s in [1e-6, 1 - 1e-6] and w near 1 here, by 2e12 at s = 1e-6,
    # w = 1 - 1e-12; the s -> 0 limit taken for s <= 1e-8 missed by 1.08e3 at s = 1e-8,
    # w = 1e-12; and the plain form just outside log1p bands of width 1e-8 missed by
    # 2.3e-7 at s = 2e-8, w = 1.3.  Each term expanded about its nearer endpoint stays
    # within 2.8e-15 on this grid
    worst = 0.0
    for s in (0.0, 1e-16, 1e-9, 1e-8, 2e-8, 1e-7, 1e-6, 1e-4, 0.1, 0.3, 0.49, 0.5, 0.51, 0.9,
              1.0 - 1e-4, 1.0 - 1e-6, 1.0 - 1e-7, 1.0 - 2e-8, 1.0 - 1e-8, 1.0):
        for w in (*(1.0 + d for d in (1e-12, -1e-12, 1e-9, -1e-9, 1e-7, 1e-5, -1e-5, 1e-3, 0.1,
                                      -0.1, 0.3, -0.5, -0.9, -0.999, 3.0, 1e3, 0.25, -0.25,
                                      0.2499, -0.2499)), 1e-12, 1e12, 1e-300, 1e300):
            ref = _ld_mpmath(s, w)
            got = logdet_divergence(np.eye(1), np.array([[w]]), s)
            worst = max(worst, float(abs(got - ref) / ref))
    assert worst <= 1e-13
    # the Lebesgue rule at whitened spectrum 1 +- 1e-7, node by node (1.037e-14 against
    # 1.000e-14 from the difference of the logs; 3.2e-16 relative now)
    nu, w = SMeasure.lebesgue(64), (1.0 + 1e-7, 1.0 - 1e-7)
    ref = sum(om * _ld_mpmath(s, wi) for s, om in zip(nu.nodes, nu.weights) for wi in w)
    assert abs(spectral_divergence(nu, np.array(w)) - ref) <= 1e-13 * ref


def spectral_divergence(nu, w):
    """``PMeasure.divergence`` of ``nu x delta_A`` at whitened spectrum w."""
    return product_measure(nu, [(1.0, np.eye(len(w)))]).divergence(np.array([w]))


def test_eig_divergence_endpoint_dispatch():
    # the divergence terms at s = 0 and 1 are the closed-form endpoint divergences
    w = np.array([0.5, 2.0])
    lo = spectral_divergence(SMeasure.dirac(0.0), w)
    assert np.isclose(lo, np.sum(1.0 / w - 1.0 + np.log(w)))
    hi = spectral_divergence(SMeasure.dirac(1.0), w)
    assert np.isclose(hi, np.sum(w - 1.0 - np.log(w)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("w", [[-1e-12, 2.0], [0.0, 2.0], [math.nan, 2.0]])
def test_eig_divergence_rejects_a_non_positive_spectrum(w):
    # rounding can leave a valid but near-singular pair's whitened spectrum off the
    # cone (one 1e-5..1e5 random_measure does at its own atom); that raises, not nan
    with pytest.raises(NotPositiveDefinite):
        spectral_divergence(SMeasure.from_atoms([(0.0, 0.2), (0.3, 0.3), (1.0, 0.5)]), w)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("w", [[1e-310, 2.0], [5e-324, 2.0], [math.inf, 2.0]])
def test_eig_divergence_rejects_a_spectrum_off_the_normal_range(w):
    # each term divides by w on the nodes s <= 1/2, which overflows below the normal
    # range; objective's gate already keeps a caller's X inside it
    with pytest.raises(DomainError):
        spectral_divergence(SMeasure.from_atoms([(0.0, 0.2), (0.3, 0.3), (1.0, 0.5)]), w)
