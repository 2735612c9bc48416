import math

import numpy as np
import pytest
from scipy.special import roots_jacobi

from conftest import measure_json, rand_psd, rand_spd, sym
from spdmeans import (
    DomainError,
    MeasureError,
    SMeasure,
    ShapeError,
    eval_mean,
    eval_monotone,
    iteration_map,
    loewner_leq,
    product_measure,
)
from spdmeans.monotone import _apply, log_kernel_grid, smeasure_from_json, x_over_affine

ALL_REPS = [
    SMeasure.dirac(0.0),
    SMeasure.dirac(0.5),
    SMeasure.dirac(1.0),
    SMeasure.from_atoms([(0.2, 0.3), (0.9, 0.7)]),
    SMeasure.lebesgue(64),
    SMeasure.power(0.2),
    SMeasure.power(0.5),
    SMeasure.power(0.8),
]


def test_log_kernel_values():
    # dirac(s) represents the single kernel (x - 1)/((1 - s) x + s)
    log_kernel = lambda s, x: eval_monotone(SMeasure.dirac(s), x)
    for s in (0.0, 0.25, 0.5, 1.0):
        assert log_kernel(s, 1.0) == 0.0
    assert log_kernel(1.0, 3.0) == 2.0
    assert abs(log_kernel(0.0, 4.0) - 0.75) <= 1e-15
    assert abs(log_kernel(0.5, 2.0) - 2.0 / 3.0) <= 1e-15
    with pytest.raises(DomainError):
        log_kernel(0.5, -1.0)


# the kernels as functions of a positive scalar or SPD matrix, through the one
# dispatch monotone._apply: the single kernel at s = 1/2 (dirac(1/2)'s function),
# the harmonic kernel that eval_mean integrates, the mean kernel at s = t = 1/2 as
# the level map forms it (1 + t * kernel at t + s(1 - t)), and a represented function
_KERNELS = [
    lambda x: eval_monotone(SMeasure.dirac(0.5), x),
    lambda x: _apply(x, lambda w: x_over_affine(0.5, w)),
    lambda x: _apply(x, lambda w: 1.0 + 0.5 * log_kernel_grid([0.75], w)[0]),
    lambda x: eval_monotone(SMeasure.lebesgue(), x),
]
_KERNEL_IDS = ["log", "harmonic", "mean", "monotone"]


@pytest.mark.parametrize("x", [-1.0, 0.0, math.nan, np.diag([1.0, -1.0]), np.diag([1.0, math.nan]),
                               math.inf],
                         ids=["negative", "zero", "nan", "indefinite", "nan-matrix", "inf"])
@pytest.mark.parametrize("kernel", _KERNELS, ids=_KERNEL_IDS)
@pytest.mark.filterwarnings("error")
def test_kernels_take_only_positive_arguments(kernel, x):
    # NaN passes an ``x <= 0`` test, and inf an ``x > 0`` one, where a kernel's value is
    # NaN; a scalar, like a spectrum, must be positive and finite
    with pytest.raises(DomainError):
        kernel(x)


@pytest.mark.parametrize("kernel", _KERNELS, ids=_KERNEL_IDS)
def test_kernels_take_nested_lists_and_reject_other_shapes(kernel):
    # dispatch on ndim: 0 is a scalar, 2 a matrix, anything else ShapeError
    a = np.array([[2.0, 0.5], [0.5, 1.0]])
    assert kernel(a.tolist()).tobytes() == kernel(a).tobytes()
    assert kernel(np.float64(2.0)) == kernel(2.0) == kernel(np.array(2.0))
    for bad in (np.ones(2), np.ones((2, 3)), np.ones((1, 2, 2)), [[1.0, 0.0], [0.0]]):
        with pytest.raises(ShapeError):
            kernel(bad)


def test_harmonic_kernel_values():
    # dirac(s) as a two-variable mean: ((1 - s) + s/x)^-1 for A = 1, B = x
    harmonic_kernel = lambda s, x: eval_mean(SMeasure.dirac(s), [[1.0]], [[x]])[0, 0]
    assert harmonic_kernel(0.0, 7.0) == 1.0
    assert harmonic_kernel(1.0, 7.0) == 7.0
    assert abs(harmonic_kernel(0.5, 3.0) - 1.5) <= 1e-15


def mean_kernel(s, t, x):
    """The two-parameter mean kernel at a scalar x: the level map at X = 1 of dirac(s) at x.

    ``iteration_map`` forms it as ``1 + t * l_(t + s(1-t))(x)``, never from the kernel's
    Moebius form, so these tests check that identity.
    """
    return iteration_map([[1.0]], t, product_measure(SMeasure.dirac(s), [(1.0, [[x]])]))[0, 0]


def test_mean_kernel_endpoints_and_semigroup():
    # t = 1 is the identity, and composing t1 and t2 gives t1 * t2
    rng = np.random.default_rng(2)
    for _ in range(50):
        s = float(rng.uniform(0.0, 1.0))
        x = float(rng.uniform(0.05, 20.0))
        assert abs(mean_kernel(s, 1.0, x) - x) <= 1e-14 * (1 + x)
        t1, t2 = rng.uniform(0.0, 1.0, 2)
        lhs = mean_kernel(s, t1, mean_kernel(s, t2, x))
        rhs = mean_kernel(s, t1 * t2, x)
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))
        num = ((1 - t1) * (1 - s) + t1) * x + s * (1 - t1)
        den = (1 - t1) * (1 - s) * x + t1 + s * (1 - t1)
        assert abs(mean_kernel(s, t1, x) - num / den) <= 1e-12 * (1 + x)


def test_mean_kernel_sandwich():
    rng = np.random.default_rng(3)
    for _ in range(200):
        s, t = rng.uniform(0.0, 1.0, 2)
        x = float(rng.uniform(0.05, 20.0))
        lo = 1.0 / ((1.0 - t) + t / x)
        hi = (1.0 - t) + t * x
        v = mean_kernel(s, t, x)
        assert lo - 1e-12 <= v <= hi + 1e-12


def test_eval_monotone_examples():
    for rep in ALL_REPS:
        z = eval_monotone(rep, np.eye(3))
        assert np.linalg.norm(z) == 0.0
    got = eval_monotone(SMeasure.lebesgue(64), np.diag([math.e]))
    assert abs(got[0, 0] - 1.0) <= 1e-8
    for t in (0.2, 0.5, 0.8):
        x = 3.7
        exact = (x**t - 1.0) / t
        assert abs(eval_monotone(SMeasure.power(t), x) - exact) <= 1e-6


def test_eval_monotone_bounds_and_monotonicity():
    grid = np.logspace(-3, 3, 25)
    for rep in ALL_REPS:
        vals = [eval_monotone(rep, float(x)) for x in grid]
        for x, v in zip(grid, vals):
            assert 1.0 - 1.0 / x - 1e-10 <= v <= x - 1.0 + 1e-10
        assert all(b > a - 1e-12 for a, b in zip(vals, vals[1:]))
    rng = np.random.default_rng(5)
    for rep in ALL_REPS:
        a = rand_spd(rng, 4)
        b = sym(a + rand_psd(rng, 4))
        assert loewner_leq(eval_monotone(rep, a), eval_monotone(rep, b), 1e-9)


def test_eval_mean_examples():
    rng = np.random.default_rng(6)
    a, b = rand_spd(rng, 3), rand_spd(rng, 3)
    arith_rep = SMeasure.from_atoms([(0.0, 0.5), (1.0, 0.5)])
    assert np.linalg.norm(eval_mean(arith_rep, a, b) - (a + b) / 2) <= 1e-10
    harm_rep = SMeasure.dirac(0.5)
    harm = np.linalg.inv(0.5 * np.linalg.inv(a) + 0.5 * np.linalg.inv(b))
    assert np.linalg.norm(eval_mean(harm_rep, a, b) - harm) <= 1e-10
    one = np.array([[2.5]])
    for rep in ALL_REPS:
        assert abs(eval_mean(rep, one, one)[0, 0] - 2.5) <= 1e-12


def test_eval_mean_fixes_diagonal_and_is_monotone():
    rng = np.random.default_rng(7)
    for rep in ALL_REPS:
        a = rand_spd(rng, 3)
        assert np.linalg.norm(eval_mean(rep, a, a) - a) <= 1e-10 * np.linalg.norm(a)
        b = rand_spd(rng, 3)
        a2 = sym(a + rand_psd(rng, 3))
        b2 = sym(b + rand_psd(rng, 3))
        assert loewner_leq(eval_mean(rep, a, b), eval_mean(rep, a2, b2), 1e-9)


def test_kubo_order_harmonic_below_arithmetic():
    rng = np.random.default_rng(8)
    harm_rep = SMeasure.dirac(0.5)
    arith_rep = SMeasure.from_atoms([(0.0, 0.5), (1.0, 0.5)])
    # representing functions are pointwise ordered on a scalar grid
    for x in np.logspace(-2, 2, 17):
        fh = 2.0 * x / (x + 1.0)  # the harmonic kernel at s = 1/2
        fa = 0.5 + 0.5 * x
        assert fh <= fa + 1e-12
    for _ in range(10):
        a, b = rand_spd(rng, 4), rand_spd(rng, 4)
        assert loewner_leq(eval_mean(harm_rep, a, b), eval_mean(arith_rep, a, b), 1e-10)


def test_positive_map_compression_inequality():
    rng = np.random.default_rng(9)
    for rep in ALL_REPS:
        a, b = rand_spd(rng, 4), rand_spd(rng, 4)
        lhs = eval_mean(rep, a, b)[:2, :2]
        rhs = eval_mean(rep, a[:2, :2], b[:2, :2])
        assert loewner_leq(lhs, rhs, 1e-9)


def test_transpose_measure():
    assert SMeasure.dirac(0.3).transpose().params["s"] == 0.7
    leb = SMeasure.lebesgue(64)
    assert leb.transpose().same_structure(leb)
    rng = np.random.default_rng(10)
    for rep in ALL_REPS:
        a, b = rand_spd(rng, 3), rand_spd(rng, 3)
        lhs = eval_mean(rep.transpose(), a, b)
        rhs = eval_mean(rep, b, a)
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * (1 + np.linalg.norm(rhs))
    # double transpose restores the original evaluation
    for rep in ALL_REPS:
        back = rep.transpose().transpose()
        assert abs(eval_monotone(back, 3.0) - eval_monotone(rep, 3.0)) <= 1e-12


def normalization(rep):
    """``(f(1), f'(1))`` of the represented f; f'(1) by 5-point centered differences at 1e-4.

    f(1) is exactly zero for any probability measure, and f'(1) is its total
    quadrature mass; the difference is accurate to ~1e-10 for analytic f.
    """
    h = 1e-4
    f = lambda x: eval_monotone(rep, x)
    fp = (f(1.0 - 2 * h) - 8.0 * f(1.0 - h) + 8.0 * f(1.0 + h) - f(1.0 + 2 * h)) / (12.0 * h)
    return f(1.0), fp


def test_check_normalization():
    f1, fp = normalization(SMeasure.lebesgue(64))
    assert f1 == 0.0 and abs(fp - 1.0) <= 1e-8
    f1, fp = normalization(SMeasure.dirac(0.4))
    assert f1 == 0.0 and abs(fp - 1.0) <= 1e-10
    f1, fp = normalization(SMeasure.power(0.5))
    assert f1 == 0.0 and abs(fp - 1.0) <= 1e-6


def test_power_density_mass():
    for t in (0.1, 0.2, 0.5, 0.8, 0.9):
        assert abs(SMeasure.power(t).weights.sum() - 1.0) <= 1e-8


@pytest.mark.parametrize("n", [1, 2, 3, 16, 64, 128])
@pytest.mark.parametrize("t", [1e-6, 0.01, 0.2, 0.5, 0.8, 0.99, 1.0 - 1e-6])
def test_power_rule_moments_nodes_and_mass(n, t):
    rep = SMeasure.power(t, n)
    # moment j of s^t (1-s)^(-t) sin(t pi)/(t pi) ds is B(j+t+1, 1-t) sin(t pi)/(t pi);
    # an n-node Gauss rule is exact up to degree 2n - 1
    scale = math.sin(t * math.pi) / (t * math.pi)
    for j in range(min(2 * n, 12)):
        exact = math.exp(math.lgamma(j + t + 1.0) + math.lgamma(1.0 - t) - math.lgamma(j + 2.0)) * scale
        assert abs(rep.weights @ rep.nodes ** j - exact) <= 1e-10 * exact
    x, _ = roots_jacobi(n, -t, t)
    assert np.max(np.abs(rep.nodes - 0.5 * (x + 1.0))) <= 1e-14
    assert abs(rep.weights.sum() - 1.0) <= 1e-14


def test_custom_density_kind():
    rep = SMeasure.custom(lambda s: 2.0 * s, nodes=64)
    # density 2s: f(x) = int l_s(x) 2s ds; check normalization mass ~ 1
    _, fp = normalization(rep)
    assert abs(fp - 1.0) <= 1e-10


def test_smeasure_validation():
    with pytest.raises(MeasureError):
        SMeasure.dirac(1.5)
    with pytest.raises(MeasureError):
        SMeasure.from_atoms([(0.5, 0.4), (0.6, 0.4)])
    with pytest.raises(MeasureError):
        SMeasure.power(1.0)


@pytest.mark.parametrize("nodes", [2.7, 0, -3, math.nan, math.inf, "8", True])
@pytest.mark.parametrize("build", [
    lambda n: SMeasure.lebesgue(n),
    lambda n: SMeasure.power(0.5, n),
    lambda n: SMeasure.custom(lambda s: 1.0, n),
    lambda n: smeasure_from_json({"type": "lebesgue", "nodes": n}),
    lambda n: smeasure_from_json({"type": "power", "t": 0.5, "nodes": n}),
], ids=["lebesgue", "power", "custom", "json-lebesgue", "json-power"])
def test_node_counts_must_be_positive_whole_numbers(build, nodes):
    # no silent truncation: 2.7 nodes is an error, not a 2-node rule; nor is a JSON
    # ``true`` a 1-node rule
    with pytest.raises(MeasureError):
        build(nodes)
    assert build(3.0).params["nodes"] == build(np.int64(3)).params["nodes"] == 3


def test_smeasure_json_roundtrip():
    # through the schema as the tests' writer emits it
    for rep in ALL_REPS:
        again = smeasure_from_json(measure_json(product_measure(rep, [(1.0, [[1.0]])]))
                                   ["atoms"][0]["nu"])
        assert again.same_structure(rep)
    assert smeasure_from_json({"type": "lebesgue"}).params["nodes"] == 64
    with pytest.raises(MeasureError):
        smeasure_from_json({"type": "spline"})
