import math

import numpy as np
import pytest
from scipy.special import roots_jacobi

from conftest import measure_json, rand_psd, rand_spd, sym
from spdmeans import (
    DomainError,
    MeasureError,
    NotPositiveDefinite,
    SMeasure,
    ShapeError,
    geometric_mean,
    iteration_map,
    karcher_residual,
    loewner_leq,
    product_measure,
)
from spdmeans.monotone import smeasure_from_json

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


def represented(rep, a):
    """The operator monotone function that ``rep`` represents, at an SPD matrix A.

    ``integral (A - 1)/((1 - s) A + s) d rep(s)`` is the Karcher residual at I of
    ``rep x delta_A``: :meth:`PMeasure.kernels` is the package's one evaluator of it.
    """
    mu = product_measure(rep, [(1.0, a)])
    return karcher_residual(np.eye(mu.dim), mu)


def scalar(rep, x):
    """The represented function at a positive number x, through the 1 x 1 matrix ``[[x]]``."""
    return float(represented(rep, [[x]])[0, 0])


def level_map(rep, t, a):
    """The level map at X = I of ``rep x delta_A``: the mean kernel ``m_(s,t)`` integrated at A."""
    mu = product_measure(rep, [(1.0, a)])
    return iteration_map(np.eye(mu.dim), t, mu)


def test_log_kernel_values():
    # dirac(s) represents the single kernel (x - 1)/((1 - s) x + s)
    log_kernel = lambda s, x: scalar(SMeasure.dirac(s), x)
    for s in (0.0, 0.25, 0.5, 1.0):
        assert log_kernel(s, 1.0) == 0.0
    assert log_kernel(1.0, 3.0) == 2.0
    assert abs(log_kernel(0.0, 4.0) - 0.75) <= 1e-15
    assert abs(log_kernel(0.5, 2.0) - 2.0 / 3.0) <= 1e-15
    with pytest.raises(NotPositiveDefinite):
        log_kernel(0.5, -1.0)


# the kernels as functions of an SPD matrix, through the public functions that evaluate
# them: the single kernel at s = 1/2 (dirac(1/2)'s function), the mean kernel at
# s = t = 1/2 as the level map forms it (1 + t * kernel at t + s(1 - t)), and a
# represented function
_KERNELS = [
    lambda x: represented(SMeasure.dirac(0.5), x),
    lambda x: level_map(SMeasure.dirac(0.5), 0.5, x),
    lambda x: represented(SMeasure.lebesgue(), x),
]
_KERNEL_IDS = ["log", "mean", "monotone"]


@pytest.mark.parametrize("x, error", [
    ([[-1.0]], NotPositiveDefinite), ([[0.0]], NotPositiveDefinite), ([[math.nan]], DomainError),
    (np.diag([1.0, -1.0]), NotPositiveDefinite), (np.diag([1.0, math.nan]), DomainError),
    ([[math.inf]], DomainError),
], ids=["negative", "zero", "nan", "indefinite", "nan-matrix", "inf"])
@pytest.mark.parametrize("kernel", _KERNELS, ids=_KERNEL_IDS)
@pytest.mark.filterwarnings("error")
def test_kernels_take_only_positive_arguments(kernel, x, error):
    # NaN passes an ``x <= 0`` test, and inf an ``x > 0`` one, where a kernel's value is
    # NaN; the atom must be finite (DomainError) and positive definite
    with pytest.raises(error):
        kernel(x)


@pytest.mark.parametrize("kernel", _KERNELS, ids=_KERNEL_IDS)
def test_kernels_take_nested_lists_and_reject_other_shapes(kernel):
    # a nested list gives its array's bytes; anything but a square matrix, a number
    # included, is ShapeError
    a = np.array([[2.0, 0.5], [0.5, 1.0]])
    assert kernel(a.tolist()).tobytes() == kernel(a).tobytes()
    for bad in (2.0, np.ones(2), np.ones((2, 3)), np.ones((1, 2, 2)), [[1.0, 0.0], [0.0]]):
        with pytest.raises(ShapeError):
            kernel(bad)


def mean_kernel(s, t, x):
    """The two-parameter mean kernel at a scalar x: the level map at X = 1 of dirac(s) at x.

    ``iteration_map`` forms it as ``1 + t * l_(t + s(1-t))(x)``, never from the kernel's
    Moebius form, so these tests check that identity.
    """
    return level_map(SMeasure.dirac(s), t, [[x]])[0, 0]


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
        z = represented(rep, np.eye(3))
        assert np.linalg.norm(z) == 0.0
    got = represented(SMeasure.lebesgue(64), np.diag([math.e]))
    assert abs(got[0, 0] - 1.0) <= 1e-8
    for t in (0.2, 0.5, 0.8):
        x = 3.7
        exact = (x**t - 1.0) / t
        assert abs(scalar(SMeasure.power(t), x) - exact) <= 1e-6


def test_eval_monotone_bounds_and_monotonicity():
    grid = np.logspace(-3, 3, 25)
    for rep in ALL_REPS:
        vals = [scalar(rep, float(x)) for x in grid]
        for x, v in zip(grid, vals):
            assert 1.0 - 1.0 / x - 1e-10 <= v <= x - 1.0 + 1e-10
        assert all(b > a - 1e-12 for a, b in zip(vals, vals[1:]))
    rng = np.random.default_rng(5)
    for rep in ALL_REPS:
        a = rand_spd(rng, 4)
        b = sym(a + rand_psd(rng, 4))
        assert loewner_leq(represented(rep, a), represented(rep, b), 1e-9)


def test_positive_map_compression_inequality():
    # Ando's inequality for a Kubo-Ando mean and the compression A -> A[:2, :2], a
    # positive unital map: Phi(A #_t B) <= Phi(A) #_t Phi(B) for the weighted geometric
    # mean, whose representing function is x^t
    rng = np.random.default_rng(9)
    for t in (0.1, 0.25, 0.5, 0.75, 0.9):
        a, b = rand_spd(rng, 4), rand_spd(rng, 4)
        lhs = geometric_mean(a, b, t)[:2, :2]
        rhs = geometric_mean(a[:2, :2], b[:2, :2], t)
        assert loewner_leq(lhs, rhs, 1e-9)


def normalization(rep):
    """``(f(1), f'(1))`` of the represented f; f'(1) by 5-point centered differences at 1e-4.

    f(1) is exactly zero for any probability measure, and f'(1) is its total
    quadrature mass; the difference is accurate to ~1e-10 for analytic f.
    """
    h = 1e-4
    f = lambda x: scalar(rep, x)
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


def test_smeasure_validation():
    with pytest.raises(MeasureError):
        SMeasure.dirac(1.5)
    with pytest.raises(MeasureError):
        SMeasure.from_atoms([(0.5, 0.4), (0.6, 0.4)])
    with pytest.raises(MeasureError):
        SMeasure.power(1.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("build", [
    lambda: SMeasure.dirac("a"),
    lambda: SMeasure.dirac(None),
    lambda: SMeasure.power("a"),
    lambda: SMeasure.from_atoms([("a", 1.0)]),
    lambda: SMeasure.from_atoms([(0.5,)]),
    lambda: SMeasure.from_atoms(None),
], ids=["dirac", "dirac-none", "power", "atoms", "atoms-not-pairs", "atoms-none"])
def test_non_numeric_parameters_raise_measure_error(build):
    # a parameter that is not a number is a malformed measure, not a TypeError or
    # ValueError from a comparison or a float() deep in a factory
    with pytest.raises(MeasureError):
        build()


@pytest.mark.parametrize("nodes", [2.7, 0, -3, math.nan, math.inf, "8", True])
@pytest.mark.parametrize("build", [
    lambda n: SMeasure.lebesgue(n),
    lambda n: SMeasure.power(0.5, n),
    lambda n: smeasure_from_json({"type": "lebesgue", "nodes": n}),
    lambda n: smeasure_from_json({"type": "power", "t": 0.5, "nodes": n}),
], ids=["lebesgue", "power", "json-lebesgue", "json-power"])
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
