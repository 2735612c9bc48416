import math
import tracemalloc

import numpy as np
import pytest

from conftest import (assert_check, rand_measure, rand_psd, rand_smeasure, rand_spd, rand_weights,
                      sym)
from spdmeans import (
    DomainError,
    MonotonicityViolation,
    NonConvergence,
    NotPositiveDefinite,
    PMeasure,
    SMeasure,
    SolverConfig,
    congruence_measure,
    distance,
    geometric_mean,
    induced_mean,
    iteration_map,
    karcher_residual,
    lambda_mean,
    logdet_divergence,
    loewner_leq,
    minimize_divergence,
    objective,
    power_mean,
    product_measure,
    riemannian_gradient,
    sandwich_check,
    weighted_arith,
    weighted_harm,
)
from spdmeans import core, solver
from spdmeans.core import whitened_eigh
from spdmeans.solver import (RESIDUAL_TOL, _newton_step, _point, _sym_pairs, _trial_point,
                             _visit, _whitened_jacobian)
from spdmeans.verify import random_measure

CFG = SolverConfig()


def two_point(rng, dim, nu=None, lo=0.1, hi=10.0):
    nu = nu or SMeasure.lebesgue(64)
    return product_measure(nu, [(0.5, rand_spd(rng, dim, lo, hi)), (0.5, rand_spd(rng, dim, lo, hi))])


# ---------------------------------------------------------------------------
# iteration map
# ---------------------------------------------------------------------------


def test_iteration_map_fixed_point_at_single_atom():
    rng = np.random.default_rng(1)
    a = rand_spd(rng, 4)
    mu = product_measure(rand_smeasure(rng), [(1.0, a)])
    for t in (0.1, 0.5, 1.0):
        assert np.linalg.norm(iteration_map(a, t, mu) - a) <= 1e-12 * np.linalg.norm(a)


def test_iteration_map_t1_is_arithmetic_mean():
    rng = np.random.default_rng(2)
    mu = rand_measure(rng, 3)
    target = weighted_arith(mu.matrix_pairs())
    x = rand_spd(rng, 3)
    got = iteration_map(x, 1.0, mu)
    assert np.linalg.norm(got - target) <= 1e-12 * (1 + np.linalg.norm(target))


def test_iteration_map_scalar_right_trivial():
    # nu = dirac(1) makes the map affine: (1-t) x + t * sum w a
    rng = np.random.default_rng(3)
    vals = np.array([2.0, 5.0, 11.0])
    w = np.array([0.2, 0.3, 0.5])
    mu = product_measure(SMeasure.dirac(1.0), [(wi, np.array([[v]])) for wi, v in zip(w, vals)])
    for t in (0.25, 0.7):
        x = float(rng.uniform(0.5, 20.0))
        got = iteration_map(np.array([[x]]), t, mu)[0, 0]
        assert abs(got - ((1 - t) * x + t * float(w @ vals))) <= 1e-12 * (1 + x)


def test_iteration_map_monotone_in_x():
    rng = np.random.default_rng(4)
    mu = rand_measure(rng, 3)
    x = rand_spd(rng, 3)
    y = sym(x + rand_psd(rng, 3))
    for t in (0.3, 0.8):
        assert loewner_leq(iteration_map(x, t, mu), iteration_map(y, t, mu), 1e-10)


def test_iteration_map_rejects_bad_t():
    rng = np.random.default_rng(5)
    mu = rand_measure(rng, 2)
    with pytest.raises(DomainError):
        iteration_map(np.eye(2), 0.0, mu)


# ---------------------------------------------------------------------------
# induced mean
# ---------------------------------------------------------------------------


def test_induced_mean_single_atom():
    rng = np.random.default_rng(6)
    a = rand_spd(rng, 4)
    mu = product_measure(rand_smeasure(rng), [(1.0, a)])
    rep = induced_mean(0.5, mu, CFG)
    assert distance(rep.mean, a) <= 1e-11


def test_induced_mean_right_trivial_is_arithmetic():
    rng = np.random.default_rng(7)
    mats = [rand_spd(rng, 3) for _ in range(3)]
    w = rand_weights(rng, 3)
    mu = product_measure(SMeasure.dirac(1.0), list(zip(w, mats)))
    target = weighted_arith(list(zip(w, mats)))
    for t in (0.2, 0.6, 1.0):
        rep = induced_mean(t, mu, CFG)
        assert np.linalg.norm(rep.mean - target) <= 1e-10 * (1 + np.linalg.norm(target))


def test_induced_mean_left_trivial_scalar_fixed_point():
    # nu = dirac(0), scalars 2 and 8 with equal weights: the fixed point of
    # 1 = sum w a / ((1-t) a + t x) at t = 1/2 is x = 4 (solve the quadratic)
    mu = product_measure(
        SMeasure.dirac(0.0), [(0.5, np.array([[2.0]])), (0.5, np.array([[8.0]]))]
    )
    rep = induced_mean(0.5, mu, CFG)
    assert abs(rep.mean[0, 0] - 4.0) <= 1e-10

    # scalar bisection oracle for an asymmetric case
    w, a = np.array([0.3, 0.7]), np.array([1.0, 9.0])
    t = 0.4

    def resid(x):
        return float(np.sum(w * a / ((1 - t) * a + t * x))) - 1.0

    lo_, hi_ = 1e-3, 1e3
    for _ in range(200):
        mid = 0.5 * (lo_ + hi_)
        if resid(mid) > 0:
            lo_ = mid
        else:
            hi_ = mid
    mu2 = product_measure(SMeasure.dirac(0.0), [(0.3, np.array([[1.0]])), (0.7, np.array([[9.0]]))])
    rep2 = induced_mean(t, mu2, CFG)
    assert abs(rep2.mean[0, 0] - lo_) <= 1e-9 * (1 + lo_)


def test_induced_mean_reparametrized_residual_vanishes():
    # at X = L_t the average of (mean_kernel(s, t, W) - I)/t over the measure
    # is zero; summed per atom and node, apart from the node blocks, as a cross-check
    rng = np.random.default_rng(9)
    mu = rand_measure(rng, 3)
    t = 0.35
    x = induced_mean(t, mu, CFG).mean
    w, q = np.linalg.eigh(x)
    irs = (q / np.sqrt(w)) @ q.T

    def mean_kernel(s, t, w):
        # the two-parameter mean kernel's Moebius form, applied spectrally
        lam, q = np.linalg.eigh(w)
        m = ((((1 - t) * (1 - s) + t) * lam + s * (1 - t))
             / ((1 - t) * (1 - s) * lam + t + s * (1 - t)))
        return (q * m) @ q.T

    def g(s, a):
        return (mean_kernel(s, t, sym(irs @ a @ irs)) - np.eye(3)) / t

    total = sum(w * sum(omega * g(float(s), a) for s, omega in zip(nu.nodes, nu.weights))
                for w, a, nu in mu.atoms)
    assert np.linalg.norm(total) <= 1e-8


def test_induced_mean_t_monotone():
    assert_check("means.t_monotone", 11, 1, (3,))


def test_induced_mean_monotone_in_measure():
    assert_check("means.monotone_induced", 12, 5, (3,))


def test_induced_mean_nonconvergence_budget():
    rng = np.random.default_rng(10)
    mu = two_point(rng, 3)
    with pytest.raises(NonConvergence) as info:
        induced_mean(0.1, mu, SolverConfig(max_iters=2))
    assert info.value.iterations <= 2
    assert not hasattr(info.value, "final_step")


def test_induced_mean_damped_newton_ill_conditioned():
    # in [1e-5, 1e5] full Newton steps miss the decrease rule; halving their
    # length converges where plain fixed-point updates crawled (35 iterations)
    mu = random_measure(np.random.default_rng(8), 6, n_atoms=3, lo=1e-5, hi=1e5)
    rep = induced_mean(0.3, mu, CFG)
    assert rep.iterations <= 15
    assert 0.3 * rep.residual_norm <= CFG.fp_tol


# ---------------------------------------------------------------------------
# closed-form whitened Jacobian
# ---------------------------------------------------------------------------


def jacobian_error(x, mats, kernel, h=1e-5):
    # relative distance between the closed-form Jacobian and central differences
    # of the whitened residual along F(I + hE)F.T, X = F F.T, on the same basis
    atoms = (mats, np.linalg.cholesky(mats))
    visit = lambda y: _visit(_point(y, atoms), kernel)
    at_x = visit(x)
    f, cx = at_x[0][1][:2]
    jac = _whitened_jacobian(at_x)
    ij, c, _, _ = _sym_pairs(len(x))

    def g(e):
        (_, (fy, *_)), _, _, gy, _ = visit(sym(f @ (np.eye(len(x)) + e) @ f.T))
        return cx.T @ sym(fy @ gy @ fy.T) @ cx  # R = F_Y G F_Y.T, whitened by X's C

    fd = []
    for b in range(len(c)):  # along the basis matrix c_b (E_ij + E_ji)
        e = np.zeros(x.shape)
        e.flat[ij[b]] = c[b]
        d = (g(h * (e + e.T)) - g(-h * (e + e.T))) / (2.0 * h)
        fd.append(2.0 * c * d.flat[ij])  # <c_a (E_ij + E_ji), D> = 2 c_a D_ij, D symmetric
    fd = np.array(fd).T
    return np.linalg.norm(fd - jac) / np.linalg.norm(jac)


def test_whitened_jacobian_matches_central_differences():
    rng = np.random.default_rng(32)
    x = rand_spd(rng, 4)
    mats = [rand_spd(rng, 4) for _ in range(3)]
    nus = [SMeasure.lebesgue(16), SMeasure.power(0.4, 16), SMeasure.from_atoms([(0.2, 0.5), (0.9, 0.5)])]
    mixed = PMeasure([(w, m, nu) for w, m, nu in zip((0.2, 0.3, 0.5), mats, nus)])
    for t in (0.0, 0.3, 1.0):
        assert jacobian_error(x, mixed.matrices, mixed.kernels(t)) <= 1e-6
    w, power = np.array([0.2, 0.3, 0.5]), PMeasure.power_kernels
    for t in (0.2, 0.8):
        assert jacobian_error(x, mixed.matrices, power(w, t)) <= 1e-6
    # an atom equal to X: every whitened eigenvalue is 1
    at_x = PMeasure([(0.4, x, nus[0]), (0.6, mats[0], nus[2])])
    assert jacobian_error(x, at_x.matrices, at_x.kernels(0.3)) <= 1e-6
    assert jacobian_error(x, at_x.matrices, power(np.array([0.4, 0.6]), 0.5)) <= 1e-6
    # commuting atoms with repeated eigenvalues
    diag = PMeasure([(0.5, np.diag([1.0, 2.0, 2.0]), nus[0]), (0.5, np.diag([3.0, 3.0, 0.5]), nus[1])])
    x = np.diag([2.0, 2.0, 1.0])
    assert jacobian_error(x, diag.matrices, diag.kernels(0.0)) <= 1e-6
    assert jacobian_error(x, diag.matrices, power(np.array([0.5, 0.5]), 0.2)) <= 1e-6


def test_newton_step_memory_is_bounded():
    # one step at n = 16 with 100 atoms: the Jacobian's one (n^2, n^2) contraction holds
    # O(k n^3 + n^4) floats, about 10 MiB; the (k, m, n^2) projection before it peaked at 80 MiB
    mu = random_measure(np.random.default_rng(0), 16, n_atoms=100)
    visit = _visit(_point(core._arith(mu.weights, mu.matrices), (mu.matrices, mu.factors)),
                   mu.kernels(0.0))
    tracemalloc.start()
    try:
        step = _newton_step(visit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert step is not None and peak <= 20 * 2**20


def test_flat_quadrature_matches_per_atom_sums():
    # the measure's kernel, its divided differences and its divergence on the padded node
    # blocks: every SMeasure kind, one-node atoms first and last, the longest rule in the
    # middle and a step-like atomic measure on (1/2, 1], against per-atom sums over each
    # atom's own nodes, on whitened spectra spanning about [1e-6, 1e6]
    rng = np.random.default_rng(34)
    step = SMeasure.from_atoms([(s, 0.25) for s in (0.6, 0.7, 0.8, 0.9)])
    nus = [SMeasure.dirac(0.0), SMeasure.from_atoms([(0.2, 0.5), (0.9, 0.5)]),
           SMeasure.lebesgue(16), SMeasure.power(0.4, 24), step, SMeasure.lebesgue(8),
           SMeasure.dirac(1.0)]
    mats = [core.congruence(np.linalg.qr(rng.standard_normal((3, 3)))[0],
                            np.diag(np.logspace(-6.0, 6.0, 3) * rng.uniform(0.5, 2.0, 3)))
            for _ in nus]
    mu = PMeasure([(w, m, nu) for w, m, nu in zip(rand_weights(rng, len(nus)), mats, nus)])
    x = rand_spd(rng, 3, 0.5, 2.0)
    lam = whitened_eigh(x, mu.matrices, mu.factors)[2]
    assert lam.min() <= 1e-5 and lam.max() >= 1e5
    for t in (0.0, 0.3, 1.0):
        ref_kernel, ref_divdiff = np.zeros_like(lam), np.zeros((len(mu), 3, 3))
        for k, (w, _, nu) in enumerate(mu.atoms):
            for s, omega in zip(t + nu.nodes * (1.0 - t), nu.weights):
                v = 1.0 / ((1.0 - s) * lam[k] + s)  # v v.T is the divided difference
                ref_kernel[k] += w * omega * (lam[k] - 1.0) / ((1.0 - s) * lam[k] + s)
                ref_divdiff[k] += w * omega * np.outer(v, v)
        phi, divdiff = mu.kernels(t)(lam)
        assert np.linalg.norm(phi - ref_kernel) <= 1e-12 * np.linalg.norm(ref_kernel)
        assert np.linalg.norm(divdiff() - ref_divdiff) <= 1e-12 * np.linalg.norm(ref_divdiff)

    def ld(s, y):  # LD_s per whitened eigenvalue, its endpoints in closed form
        if s == 0.0:
            return 1.0 / y - 1.0 + np.log(y)
        if s == 1.0:
            return y - 1.0 - np.log(y)
        return (np.log((1.0 - s) * y + s) - (1.0 - s) * np.log(y)) / (s * (1.0 - s))

    ref = sum(w * omega * np.sum(ld(s, lam[k]))
              for k, (w, _, nu) in enumerate(mu.atoms) for s, omega in zip(nu.nodes, nu.weights))
    assert abs(mu.divergence(lam) - ref) <= 1e-12 * ref
    ref = sum(w * omega * logdet_divergence(x, a, s)
              for w, a, nu in mu.atoms for s, omega in zip(nu.nodes, nu.weights))
    assert abs(objective(x, mu) - ref) <= 1e-12 * ref


# ---------------------------------------------------------------------------
# power mean
# ---------------------------------------------------------------------------


def test_power_route_equivalence():
    assert_check("means.power_route", 28, 1, (4,))


def test_power_mean_single_matrix():
    rng = np.random.default_rng(13)
    a = rand_spd(rng, 4)
    rep = power_mean(0.5, [(1.0, a)], CFG)
    assert distance(rep.mean, a) <= 1e-11


def test_power_mean_t1_is_arithmetic():
    rng = np.random.default_rng(14)
    mats = [rand_spd(rng, 3) for _ in range(3)]
    w = rand_weights(rng, 3)
    rep = power_mean(1.0, list(zip(w, mats)), CFG)
    target = weighted_arith(list(zip(w, mats)))
    assert np.linalg.norm(rep.mean - target) <= 1e-11 * (1 + np.linalg.norm(target))


def test_power_mean_commuting_oracle():
    # diagonal matrices reduce to scalar power means (sum w a^t)^(1/t);
    # also checked against a plain scalar fixed-point iteration
    rng = np.random.default_rng(15)
    vals = np.exp(rng.uniform(-1.5, 1.5, (3, 4)))
    w = rand_weights(rng, 3)
    for t in (0.2, 0.5, 0.8):
        rep = power_mean(t, [(w[i], np.diag(vals[i])) for i in range(3)], CFG)
        closed = (w @ vals**t) ** (1.0 / t)
        assert np.max(np.abs(np.diag(rep.mean) - closed) / closed) <= 1e-10
        x = float(vals.mean())
        for _ in range(20000):
            xn = float(np.sum(w * x ** (1 - t) * vals[:, 0] ** t))
            if abs(xn - x) <= 1e-14 * x:
                x = xn
                break
            x = xn
        assert abs(x - closed[0]) <= 1e-9 * closed[0]


def test_power_mean_fixed_point_of_geometric_means():
    rng = np.random.default_rng(16)
    mats = [rand_spd(rng, 3) for _ in range(3)]
    w = rand_weights(rng, 3)
    t = 0.45
    rep = power_mean(t, list(zip(w, mats)), CFG)
    back = sum(wi * geometric_mean(rep.mean, m, t) for wi, m in zip(w, mats))
    assert distance(rep.mean, sym(back)) <= 10.0 * CFG.fp_tol


# ---------------------------------------------------------------------------
# Karcher residual and the lambda (Karcher) mean
# ---------------------------------------------------------------------------


def test_karcher_residual_examples():
    rng = np.random.default_rng(17)
    a = rand_spd(rng, 4)
    mu = product_measure(rand_smeasure(rng), [(1.0, a)])
    assert np.linalg.norm(karcher_residual(a, mu)) <= 1e-13 * np.linalg.norm(a)
    mats = [rand_spd(rng, 3) for _ in range(3)]
    w = rand_weights(rng, 3)
    mu1 = product_measure(SMeasure.dirac(1.0), list(zip(w, mats)))
    x = rand_spd(rng, 3)
    expect = weighted_arith(list(zip(w, mats))) - x
    assert np.linalg.norm(karcher_residual(x, mu1) - expect) <= 1e-11 * (1 + np.linalg.norm(expect))


_POINT_FUNCTIONS = [
    pytest.param(karcher_residual, id="karcher_residual"),
    pytest.param(objective, id="objective"),
    pytest.param(lambda x, mu: iteration_map(x, 0.25, mu), id="iteration_map"),
    pytest.param(riemannian_gradient, id="riemannian_gradient"),
]


@pytest.mark.parametrize("f", _POINT_FUNCTIONS)
def test_a_point_is_gated_by_the_eigh_that_whitens_it(monkeypatch, f):
    # X takes one eigh and no eigvalsh: the spectrum that whitens the atoms also gates X
    rng = np.random.default_rng(43)
    mu, x = rand_measure(rng, 3, n_atoms=4), rand_spd(rng, 3)
    f(x, mu)  # warm
    calls = {"eigh": 0, "eigvalsh": 0}

    def counted(name):
        real = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, wrapper)

    counted("eigh")
    counted("eigvalsh")
    f(x, mu)
    assert calls == {"eigh": 2, "eigvalsh": 0}  # one for X, one for the stacked atoms


def _trial_spectrum(x, mu):
    # a solver's trial point: None where the rule refuses it, else its whitened atoms' spectrum
    point = _trial_point(x, (mu.matrices, mu.factors))
    return None if point is None else point[1][2]


@pytest.mark.parametrize("f", [
    *_POINT_FUNCTIONS,
    pytest.param(lambda x, mu: whitened_eigh(x, mu.matrices, mu.factors)[2], id="frame"),
    pytest.param(_trial_spectrum, id="trial_point"),
])
@pytest.mark.parametrize("low", [1e-16, 2e-14, 2.0000000000000003e-14, 1e-13])
def test_a_point_at_the_pd_floor_is_judged_as_spd_matrix_judges_it(f, low):
    # every frame reads eigh's eigenvalues with spd_matrix's rule (lo > n * PD_FLOOR * hi)
    # and message, a solver's trial point included, which is refused as None; n = 2 puts the
    # floor at 2e-14
    x = np.diag([1.0, low])
    mu = product_measure(SMeasure.lebesgue(), [(1.0, np.diag([2.0, 0.5]))])
    try:
        core.spd_matrix(x)
    except NotPositiveDefinite as exc:
        if f is _trial_spectrum:
            assert f(x, mu) is None
        else:
            with pytest.raises(NotPositiveDefinite) as err:
                f(x, mu)
            assert str(err.value) == str(exc)
    else:
        assert np.all(np.isfinite(f(x, mu)))


_FAR = product_measure(SMeasure.lebesgue(), [(1.0, 1e300 * np.eye(2))])
_NEAR_ZERO = product_measure(SMeasure.lebesgue(), [(1.0, 1e-300 * np.eye(2))])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call", [
    pytest.param(lambda: karcher_residual(1e-300 * np.eye(2), _FAR), id="residual-overflow"),
    pytest.param(lambda: iteration_map(1e-300 * np.eye(2), 0.5, _FAR), id="map-overflow"),
    pytest.param(lambda: objective(1e-300 * np.eye(2), _FAR), id="objective-overflow"),
    pytest.param(lambda: karcher_residual(1e300 * np.eye(2), _NEAR_ZERO),
                 id="residual-underflow"),
    pytest.param(lambda: logdet_divergence(1e-160 * np.eye(2), 1e160 * np.eye(2), 0.5),
                 id="divergence-overflow"),
    pytest.param(lambda: logdet_divergence(1e160 * np.eye(2), 1e-160 * np.eye(2), 0.5),
                 id="divergence-underflow"),
])
def test_a_point_whose_whitened_spectrum_leaves_the_normal_range_is_refused(call):
    # whitened eigenvalues of 1e600 or 1e-600 (1e320, 1e-320) are no normal floats: no NaN,
    # no leaked warning and no silently wrong residual, whose exact value is about -1.4e303 I
    with pytest.raises(DomainError, match="normal float range"):
        call()


@pytest.mark.filterwarnings("error")
def test_a_point_far_from_the_atoms_within_the_float_range_is_answered():
    # a whitened eigenvalue of 1e300 is a normal float: the point is not refused
    mu = product_measure(SMeasure.dirac(0.5), [(1.0, 1e150 * np.eye(2))])
    assert np.all(np.isfinite(karcher_residual(1e-150 * np.eye(2), mu)))
    assert math.isfinite(objective(1e-150 * np.eye(2), mu))


def test_lambda_mean_single_atom():
    rng = np.random.default_rng(18)
    a = rand_spd(rng, 4)
    mu = product_measure(rand_smeasure(rng), [(1.0, a)])
    rep = lambda_mean(mu, CFG)
    assert distance(rep.mean, a) <= 1e-10


def test_lambda_mean_positive_homogeneity_at_small_scale():
    # L(c mu) = c L(mu); the whitened Newton step is congruence-equivariant,
    # so nothing in it depends on the scale of X
    mu = random_measure(np.random.default_rng(0), 4, n_atoms=3)
    scaled = PMeasure([(w, 1e-6 * m, nu) for w, m, nu in mu.atoms])
    assert distance(lambda_mean(scaled, CFG).mean, 1e-6 * lambda_mean(mu, CFG).mean) <= 1e-12


def test_solvers_positive_homogeneity_at_extreme_scales():
    # RESIDUAL_TOL and grad_tol are judged on whitened norms, so neither
    # solver's stopping test depends on the scale of the measure
    mu = random_measure(np.random.default_rng(0), 4, n_atoms=3)
    mean = lambda_mean(mu, CFG).mean
    for c in (1e-6, 1e8):
        scaled = PMeasure([(w, c * m, nu) for w, m, nu in mu.atoms])
        assert distance(lambda_mean(scaled, CFG).mean, c * mean) <= 1e-8
        assert distance(minimize_divergence(scaled).mean, c * mean) <= 1e-8


@pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
def test_reported_residual_norm_is_the_whitened_one_each_stop_test_bounds(c):
    # residual_norm is the whitened ||G||_F of the equation each route solved, so
    # it meets that route's stop bound at every scale of the measure; the levels
    # of induced_mean and power_mean may end at the rounding floor, 1e4 * fp_tol
    mu = random_measure(np.random.default_rng(0), 4, n_atoms=3)
    scaled = PMeasure([(w, c * m, nu) for w, m, nu in mu.atoms])
    floor = 1e4 * CFG.fp_tol
    assert lambda_mean(scaled, CFG).residual_norm <= RESIDUAL_TOL
    assert minimize_divergence(scaled, CFG).residual_norm <= CFG.grad_tol
    assert induced_mean(0.5, scaled, CFG).residual_norm <= floor
    assert power_mean(0.3, scaled.matrix_pairs(), CFG).residual_norm <= floor


def test_lambda_mean_newton_levels_take_few_iterations():
    # the closed-form Newton step settles every warm-started level in a handful
    # of iterations; a stale or inexact Jacobian shows up here first
    for seed in range(5):
        for n in (2, 4, 6):
            rep = lambda_mean(random_measure(np.random.default_rng(seed), n, n_atoms=3), CFG)
            assert max(iters for _, iters in rep.t_trace[1:]) <= 6
            assert rep.iterations <= 3 * len(rep.t_trace)


def test_lambda_mean_predicted_levels_start_near_their_fixed_points():
    # each level starts from the extrapolation of the (up to five) levels solved
    # before it, O(t^5) off its fixed point; from the previous level alone it is
    # O(t) off.  Under halving of t the levels at t <= 1/16 took 2.33-2.90 Newton
    # steps each from the previous level, 1.17-1.71 from the extrapolation; on
    # t = 4^-l the same set, the levels with four solved levels of history (L_1
    # among them), takes 1.25-1.50.  The five-level limit stops every solve within
    # 7 levels, where halving took up to 10 and three levels up to 13
    for seed in range(5):
        for n in (2, 4, 6):
            rep = lambda_mean(random_measure(np.random.default_rng(seed), n, n_atoms=3), CFG)
            small = [iters for _, iters in rep.t_trace[3:]]
            assert sum(small) <= 2 * len(small)
            assert len(rep.t_trace) <= 7


def test_lambda_mean_net_cost_and_shape():
    # on t = 4^-l the 15 solves take 96 levels and 221 Newton steps (halving t took
    # 137 and 283), and the Richardson limit, not the deepest level, carries each answer:
    # that level stays at least 1.5e-5 from it (2.4e-7 on t = 16^-l, where the net
    # nears the t = 0 Newton route it cross-checks)
    levels = iterations = 0
    for seed in range(5):
        for n in (2, 4, 6):
            mu = random_measure(np.random.default_rng(seed), n, n_atoms=3)
            rep = lambda_mean(mu, CFG)
            levels += len(rep.t_trace)
            iterations += rep.iterations
            deepest = induced_mean(rep.t_trace[-1][0], mu, CFG).mean
            assert distance(deepest, rep.mean) >= 1e3 * CFG.lambda_tol
    assert levels <= 105
    assert iterations <= 240


def test_lambda_mean_monotonicity_check_is_scale_invariant():
    # in [1e-5, 1e5] successive levels at t ~ 1e-12 differ by rounding: the
    # whitened X^(-1/2) L_prev X^(-1/2) is I to 3e-10, while lambda_min(L_prev - X)
    # is -2e-9, beyond an absolute 1e-9; the net stops well above such t, so a
    # lambda_tol of 1e-300 runs it on until two extrapolations agree exactly
    # (t = 4^-30 and 4^-33 on the two inputs)
    cfg = SolverConfig(lambda_tol=1e-300)
    for seed in (1, 10):
        mu = random_measure(np.random.default_rng(seed), 6, n_atoms=3, lo=1e-5, hi=1e5)
        rep = lambda_mean(mu, cfg)
        assert rep.t_trace[-1][0] <= 1e-12
        c = whitened_eigh(rep.mean, mu.matrices, mu.factors)[1]
        assert np.linalg.norm(c.T @ karcher_residual(rep.mean, mu) @ c) <= RESIDUAL_TOL


def test_lambda_mean_raises_when_a_level_increases(monkeypatch):
    # a fourth level 1e-7 above the third, far beyond rounding, is a numerics bug; the
    # message names both levels' t
    solve_level = solver._solve_level
    solved = []

    def inflated(atoms, kernel, t, start, *args):
        visit, iters = solve_level(atoms, kernel, t, start, *args)
        if len(solved) == 3:
            visit = _visit(_point((1.0 + 1e-7) * solved[-1][0][0], atoms), kernel)
        solved.append(visit)
        return visit, iters

    monkeypatch.setattr(solver, "_solve_level", inflated)
    with pytest.raises(MonotonicityViolation, match=r"from t=0\.015625 to t=0\.00390625$"):
        lambda_mean(random_measure(np.random.default_rng(0), 4, n_atoms=3), CFG)
    assert len(solved) == 4


def test_lambda_mean_levels_stop_at_the_rounding_floor():
    # in [1e-3, 1e3] the whitened residual bottoms out near fp_tol; a failed
    # Newton step there ends the level, so the cost of a solve does not hinge
    # on the rounding of its coordinates (waiting out the stall took 14-16
    # iterations per level and 94-296 per solve over these rotations; the
    # floor exit takes 25-30 on t = 4^-l, 39-49 under halving of t).  The second
    # level, a jump from t = 1/4 to 1/16 with two solved levels behind it, took 7
    rng = np.random.default_rng(100)
    for seed in (6, 7):
        mu = random_measure(np.random.default_rng(seed), 4, n_atoms=3, lo=1e-3, hi=1e3)
        for _ in range(3):
            q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
            rep = lambda_mean(congruence_measure(q, mu), CFG)
            assert max(iters for _, iters in rep.t_trace[2:]) <= 6
            assert rep.iterations <= 40


def test_lambda_mean_whitens_each_visited_point_once(monkeypatch):
    # a level's end point carries its whitened spectrum to the stopping test,
    # the Thompson gap and the next level; only the start point and the trial
    # points of the iterations are whitened.  Each costs two eigh calls (its
    # frame and its whitened atoms); past the first level, the monotonicity
    # check and the extrapolation gap share one more, and the measure's own
    # gate, which factors its atoms, takes one
    calls = {"eigh": 0, "whitened_eigh": 0}

    def counted(name, fn):
        return lambda *args: calls.__setitem__(name, calls[name] + 1) or fn(*args)

    monkeypatch.setattr(core, "_eigh", counted("eigh", core._eigh))
    monkeypatch.setattr(solver, "whitened_eigh", counted("whitened_eigh", whitened_eigh))
    for lo, hi in ((1e-1, 1e1), (1e-3, 1e3)):
        for seed in range(5):
            calls.update(eigh=0, whitened_eigh=0)
            rep = lambda_mean(random_measure(np.random.default_rng(seed), 4, 3, lo=lo, hi=hi), CFG)
            assert calls["whitened_eigh"] <= rep.iterations + len(rep.t_trace) + 2
            assert calls["eigh"] <= 2 * calls["whitened_eigh"] + len(rep.t_trace)


def test_each_visit_is_one_node_pass_of_the_kernel(monkeypatch):
    # the measure's evaluator makes one node pass per visited point, and the Newton step
    # from that point reads the divided differences of the same pass from the visit
    # record: the passes equal the visits, and a step adds none
    calls = {"pass": 0, "visit": 0, "divdiff": 0, "step": 0}
    kernels, visit, newton_step = PMeasure.kernels, solver._visit, solver._newton_step

    def counted(name, fn):
        return lambda *args: calls.__setitem__(name, calls[name] + 1) or fn(*args)

    def counted_kernels(self, t):
        kernel = kernels(self, t)

        def one_pass(lam):
            phi, divdiff = kernel(lam)
            return phi, counted("divdiff", divdiff)

        return counted("pass", one_pass)

    def counted_visit(point, kernel):
        calls["visit"] += point is not None  # a trial point outside the cone is no visit
        return visit(point, kernel)

    monkeypatch.setattr(PMeasure, "kernels", counted_kernels)
    monkeypatch.setattr(solver, "_visit", counted_visit)
    monkeypatch.setattr(solver, "_newton_step", counted("step", newton_step))
    for lo, hi in ((1e-1, 1e1), (1e-3, 1e3)):
        for seed in range(5):
            mu = random_measure(np.random.default_rng(seed), 4, 3, lo=lo, hi=hi)
            for solve in (lambda_mean, minimize_divergence):
                calls.update({name: 0 for name in calls})
                rep = solve(mu, CFG)
                assert calls["pass"] == calls["visit"] > rep.iterations
                assert calls["divdiff"] == calls["step"] >= rep.iterations


def test_lambda_mean_exhausted_schedule_reports_the_last_level(monkeypatch):
    # a net whose extrapolations never meet runs out of its 200 levels; the error
    # carries the iterations of every level solved
    solve_level = solver._solve_level
    solved = []

    def counted(*args):
        visit, iters = solve_level(*args)
        solved.append(iters)
        return visit, iters

    monkeypatch.setattr(solver, "_solve_level", counted)
    monkeypatch.setattr(solver, "_extrapolation_gap", lambda *args: math.inf)
    mu = random_measure(np.random.default_rng(0), 2, 3)
    with pytest.raises(NonConvergence, match="t-schedule exhausted 200 levels") as exc:
        lambda_mean(mu, CFG)
    assert len(solved) == 200
    assert exc.value.iterations == sum(solved)


def test_newton_step_on_a_singular_jacobian_stalls():
    # a zero kernel and divided difference give a zero Jacobian: the step is None,
    # not a LinAlgError; the kernel x with divided difference 1 zeroes the Jacobian
    # too, at a nonzero residual, and the level solve reports the stall
    mats = rand_spd(np.random.default_rng(41), 3)[None]
    atoms = (mats, np.linalg.cholesky(mats))
    point = _point(np.eye(3), atoms)
    zero = lambda lam: (np.zeros_like(lam), lambda: np.zeros(lam.shape + lam.shape[-1:]))
    assert solver._newton_step(_visit(point, zero)) is None
    linear = lambda lam: (lam, lambda: np.ones(lam.shape + lam.shape[-1:]))
    assert solver._newton_step(_visit(point, linear)) is None
    with pytest.raises(NonConvergence, match="stalled"):
        solver._solve_level(atoms, linear, 0.5, _visit(point, linear), 1e-12, 100)


def test_lambda_mean_two_point_geometric():
    assert_check("means.two_point_oracle", 19, 5, (2, 3, 4, 5))


def test_lambda_mean_scalar_log_mean():
    assert_check("means.scalar_karcher", 20, 1, (3,))


def test_lambda_mean_dirac_endpoints():
    # dirac(1) gives the arithmetic mean, dirac(0) the harmonic mean
    rng = np.random.default_rng(21)
    mats = [rand_spd(rng, 3) for _ in range(3)]
    w = rand_weights(rng, 3)
    pairs = list(zip(w, mats))
    arith = lambda_mean(product_measure(SMeasure.dirac(1.0), pairs), CFG).mean
    assert np.linalg.norm(arith - weighted_arith(pairs)) <= 1e-9 * np.linalg.norm(arith)
    harm = lambda_mean(product_measure(SMeasure.dirac(0.0), pairs), CFG).mean
    assert np.linalg.norm(harm - weighted_harm(pairs)) <= 1e-8 * np.linalg.norm(harm)


def test_lambda_mean_superadditive_in_measure():
    # mixing structurally matched measures means combining matched atoms
    # convexly, (1-u) A_k + u B_k, with the weights and [0,1]-parts shared
    rng = np.random.default_rng(23)
    mu1 = rand_measure(rng, 3, n_atoms=3)
    mu2 = PMeasure([(w, sym(m + rand_psd(rng, 3)), nu) for w, m, nu in mu1.atoms])
    lam1 = lambda_mean(mu1, CFG).mean
    lam2 = lambda_mean(mu2, CFG).mean
    for u in (0.25, 0.5, 0.75):
        mixed = PMeasure(
            [
                (w1, (1 - u) * m1 + u * m2, nu1)
                for (w1, m1, nu1), (_, m2, _) in zip(mu1.atoms, mu2.atoms)
            ]
        )
        lam_mix = lambda_mean(mixed, CFG).mean
        assert loewner_leq((1 - u) * lam1 + u * lam2, lam_mix, 1e-8)


def test_lambda_mean_nonexpansive_in_atoms():
    rng = np.random.default_rng(24)
    mu1 = rand_measure(rng, 3, n_atoms=3)
    mu2 = PMeasure(
        [(w, sym(m + rand_psd(rng, 3, scale=0.1)), nu) for w, m, nu in mu1.atoms]
    )
    spread = max(
        distance(m1, m2) for (_, m1, _), (_, m2, _) in zip(mu1.atoms, mu2.atoms)
    )
    lam1 = lambda_mean(mu1, CFG).mean
    lam2 = lambda_mean(mu2, CFG).mean
    assert distance(lam1, lam2) <= spread + 1e-9


def test_lambda_mean_positive_map_compression():
    rng = np.random.default_rng(25)
    mu = rand_measure(rng, 4, n_atoms=3)
    lam = lambda_mean(mu, CFG).mean
    compressed = PMeasure([(w, m[:2, :2].copy(), nu) for w, m, nu in mu.atoms])
    lam_c = lambda_mean(compressed, CFG).mean
    assert loewner_leq(lam[:2, :2], lam_c, 1e-9)


def test_lambda_mean_extrapolated_limit_agrees_with_newton():
    # the net stops on successive Richardson extrapolations of its last five
    # levels to t = 0: at most 1.5e-11 from the t = 0 Newton minimizer after a
    # median of 7 levels on t = 4^-l (halving t: 6.5e-11 after 11; three levels:
    # 1.4e-10 after 14), where the level gap d(L_t, L_2t) <= lambda_tol stopped
    # up to 9.9e-10 away after a median of 32
    levels = []
    for lo, hi in ((1e-1, 1e1), (1e-3, 1e3)):
        for n in (4, 8):
            for seed in range(12):
                mu = random_measure(np.random.default_rng(seed), n, 3, lo=lo, hi=hi)
                rep = lambda_mean(mu, CFG)
                newton = minimize_divergence(mu, SolverConfig(grad_tol=1e-12)).mean
                assert distance(rep.mean, newton) <= 2e-10
                c = whitened_eigh(rep.mean, mu.matrices, mu.factors)[1]
                assert np.linalg.norm(c.T @ karcher_residual(rep.mean, mu) @ c) <= RESIDUAL_TOL
                levels.append(len(rep.t_trace))
    assert np.median(levels) <= 12


def test_extrapolation_gap_is_a_certified_bound():
    # an upper bound on d(E_prev, E) whenever it is finite, and infinite unless
    # both extrapolations are positive definite
    rng = np.random.default_rng(40)
    c = whitened_eigh(rand_spd(rng, 4), np.eye(4)[None], np.eye(4)[None])[1]

    def gap(e, e_prev):
        return solver._extrapolation_gap(core.whiten(c, np.stack([e, e - e_prev]))[0])

    for scale in (1e-10, 1e-6, 1e-3):
        e = rand_spd(rng, 4)
        e_prev = e + scale * sym(rng.standard_normal((4, 4)))
        bound = gap(e, e_prev)
        assert bound < np.inf and distance(e_prev, e) <= bound * (1 + 1e-12) + 1e-15
    e = np.diag([1.0, 1.0, 1.0, -1e-3])
    assert gap(e, e) == np.inf
    assert gap(e, np.eye(4)) == np.inf
    assert gap(np.eye(4), e) == np.inf


def test_lambda_mean_two_variable_mean_properties():
    # with a two-atom matrix marginal the construction is an operator mean:
    # normalized, monotone, congruence-equivariant
    rng = np.random.default_rng(27)
    nu = rand_smeasure(rng)
    w = 0.3
    eye_mu = product_measure(nu, [(1 - w, np.eye(3)), (w, np.eye(3))])
    assert distance(lambda_mean(eye_mu, CFG).mean, np.eye(3)) <= 1e-10
    a, b = rand_spd(rng, 3), rand_spd(rng, 3)
    m_ab = lambda_mean(product_measure(nu, [(1 - w, a), (w, b)]), CFG).mean
    a2, b2 = sym(a + rand_psd(rng, 3)), sym(b + rand_psd(rng, 3))
    m_a2b2 = lambda_mean(product_measure(nu, [(1 - w, a2), (w, b2)]), CFG).mean
    assert loewner_leq(m_ab, m_a2b2, 1e-8)
    c = sym(rng.standard_normal((3, 3))) + 3.0 * np.eye(3)
    m_cong = lambda_mean(product_measure(nu, [(1 - w, sym(c @ a @ c)), (w, sym(c @ b @ c))]), CFG).mean
    target = sym(c @ m_ab @ c)
    assert np.linalg.norm(m_cong - target) <= 1e-8 * (1 + np.linalg.norm(target))


def test_sandwich_check():
    rng = np.random.default_rng(29)
    mu = rand_measure(rng, 3)
    pairs = mu.matrix_pairs()
    assert sandwich_check(weighted_arith(pairs), mu)
    assert not sandwich_check(2.0 * weighted_arith(pairs), mu)
    single = product_measure(SMeasure.dirac(0.5), [(1.0, rand_spd(rng, 3))])
    assert sandwich_check(single.atoms[0][1], single)


def test_solver_config_validation():
    with pytest.raises(DomainError):
        SolverConfig(fp_tol=0.0)
    with pytest.raises(DomainError):
        SolverConfig(grad_tol=0.0)
    # a budget is a whole number of iterations, as a node count is a whole number of nodes
    with pytest.raises(DomainError, match="max_iters must be positive and whole, got 2.5"):
        SolverConfig(max_iters=2.5)
    with pytest.raises(DomainError, match="max_iters must be positive and whole, got True"):
        SolverConfig(max_iters=True)  # a bool is not a count
    assert SolverConfig(max_iters=3.0).max_iters == 3


@pytest.mark.parametrize("name", ["fp_tol", "lambda_tol", "grad_tol", "max_iters"])
def test_solver_config_rejects_nan(name):
    # NaN fails every comparison, so each guard is written ``not ...``; an infinite
    # tolerance would accept any point (0 iterations) and an infinite budget never ends
    for value in (math.nan, math.inf):
        with pytest.raises(DomainError):
            SolverConfig(**{name: value})


@pytest.mark.parametrize("name", ["t_start", "t_factor", "residual_tol"])
def test_solver_config_has_no_schedule_or_residual_setting(name):
    # the net's schedule is t = 4^-l and its residual bound RESIDUAL_TOL
    with pytest.raises(TypeError):
        SolverConfig(**{name: 0.5})


def test_report_json_schema():
    rng = np.random.default_rng(30)
    mu = two_point(rng, 2)
    rep = lambda_mean(mu, CFG)
    obj = rep.to_json()
    assert set(obj) == {
        "mean", "iterations", "residual_norm", "t_trace",
    }
    assert obj["mean"]["dim"] == 2
    assert all(len(pair) == 2 for pair in obj["t_trace"])
