import math

import numpy as np
import pytest

from conftest import conditioned_transform, rand_spd, sym, thompson_ball_point
from spdmeans import (
    DomainError,
    NotPositiveDefinite,
    SMeasure,
    contraction_factor_affine,
    contraction_factor_mean,
    contraction_factor_uniform,
    distance,
    iteration_map,
    loewner_leq,
    min_scaling,
    product_measure,
)
from spdmeans.thompson import log_spread


def test_min_scaling_cases():
    rng = np.random.default_rng(2)
    a = rand_spd(rng, 3)
    assert abs(min_scaling(a, a) - 1.0) <= 1e-12
    assert abs(min_scaling(2 * np.eye(3), np.eye(3)) - 2.0) <= 1e-12
    # diagonal ratios 1/2 and 4; the larger wins
    assert abs(min_scaling(np.diag([1.0, 4.0]), np.diag([2.0, 1.0])) - 4.0) <= 1e-12


@pytest.mark.parametrize("w", [[4.0, -1.0], [0.0, 2.0], [math.nan, 2.0], [math.inf, 2.0]])
def test_log_spread_rejects_spectra_that_are_not_positive(w):
    with pytest.raises(NotPositiveDefinite):
        log_spread(w)


def test_distance_rejects_an_indefinite_operand():
    with pytest.raises(NotPositiveDefinite):
        distance(np.diag([4.0, -1.0]), np.eye(2))
    with pytest.raises(NotPositiveDefinite):
        distance(np.eye(2), np.diag([4.0, -1.0]))


def test_shape_mismatch_raises():
    from spdmeans import ShapeError

    with pytest.raises(ShapeError):
        distance(np.eye(2), np.eye(3))
    with pytest.raises(ShapeError):
        min_scaling(np.eye(2), np.eye(3))


def test_distance_cases():
    rng = np.random.default_rng(3)
    a = rand_spd(rng, 4)
    assert distance(a, a) <= 1e-12
    assert abs(distance(2 * np.eye(3), np.eye(3)) - math.log(2.0)) <= 1e-12
    got = distance(np.diag([1.0, 4.0]), np.diag([2.0, 1.0]))
    assert abs(got - math.log(4.0)) <= 1e-12


def test_metric_axioms_and_invariances():
    # eigenvalue range [0.05, 20]: at wider spreads the whitened-log route
    # loses enough digits through conditioning to exceed the 1e-10 budget
    rng = np.random.default_rng(5)
    tol = 1e-10
    for _ in range(50):
        n = int(rng.integers(2, 6))
        a, b, c = (rand_spd(rng, n, 0.05, 20.0) for _ in range(3))
        dab = distance(a, b)
        assert dab >= 0.0
        assert abs(dab - distance(b, a)) <= tol
        assert distance(a, c) <= dab + distance(b, c) + tol
        r = float(rng.uniform(0.05, 20.0))
        assert abs(distance(r * a, r * b) - dab) <= tol
        assert abs(distance(np.linalg.inv(a), np.linalg.inv(b)) - dab) <= tol
        m = conditioned_transform(rng, n)
        assert abs(distance(sym(m @ a @ m.T), sym(m @ b @ m.T)) - dab) <= tol
        e = math.exp(dab)
        assert loewner_leq(a, e * b, tol) and loewner_leq(b, e * a, tol)
        assert loewner_leq(b / e, a, tol) and loewner_leq(a / e, b, tol)


def test_convex_combination_nonexpansive():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(2, 5))
        mats_a = [rand_spd(rng, n) for _ in range(3)]
        mats_b = [rand_spd(rng, n) for _ in range(3)]
        ts = rng.uniform(0.2, 2.0, 3)
        lhs = distance(
            sum(t * m for t, m in zip(ts, mats_a)),
            sum(t * m for t, m in zip(ts, mats_b)),
        )
        assert lhs <= max(distance(x, y) for x, y in zip(mats_a, mats_b)) + 1e-10


def test_weighted_two_term_bound():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        a1, b1, a2, b2 = (rand_spd(rng, n) for _ in range(4))
        if distance(a1, b1) < distance(a2, b2):
            a1, b1, a2, b2 = a2, b2, a1, b1
        c1, c2 = rng.uniform(0.2, 2.0, 2)
        d1, d2 = distance(a1, b1), distance(a2, b2)
        wa = math.exp(-distance(a1, a2))
        wb = math.exp(-distance(b1, b2))
        bound = max(
            (c1 * math.exp(d1) + c2 * wa * math.exp(d2)) / (c1 + c2 * wa),
            (c1 * math.exp(d1) + c2 * wb * math.exp(d2)) / (c1 + c2 * wb),
        )
        lhs = math.exp(distance(c1 * a1 + c2 * a2, c1 * b1 + c2 * b2))
        assert lhs <= bound + 1e-10


def test_contraction_factor_affine_values():
    # direct evaluation of the formula at a = b = r = 1
    expected = math.log((math.exp(3.0) + 1.0) / (math.exp(1.0) + 1.0)) / 2.0
    assert abs(contraction_factor_affine(1.0, 1.0, 1.0) - expected) <= 1e-15
    assert abs(expected - 0.8676628320277596) <= 1e-15
    # b -> 0 is a pure translation with vanishing contraction factor
    assert contraction_factor_affine(1.0, 1e-12, 1.0) <= 1e-10
    with pytest.raises(DomainError):
        contraction_factor_affine(-1.0, 1.0, 1.0)


@pytest.mark.parametrize("call", [
    lambda: contraction_factor_affine(math.nan, 1.0, 1.0),
    lambda: contraction_factor_affine(1.0, math.nan, 1.0),
    lambda: contraction_factor_affine(1.0, 1.0, math.nan),
    lambda: contraction_factor_mean(0.5, 0.5, math.nan),
    lambda: contraction_factor_uniform(0.5, math.nan),
], ids=["affine-a", "affine-b", "affine-r", "mean-r", "uniform-r"])
def test_contraction_factors_reject_nan(call):
    with pytest.raises(DomainError):
        call()


def test_contraction_factor_affine_below_one():
    rng = np.random.default_rng(13)
    a = np.exp(rng.uniform(-3, 3, 10000))
    b = np.exp(rng.uniform(-3, 3, 10000))
    r = np.exp(rng.uniform(-2, 2, 10000))
    for ai, bi, ri in zip(a, b, r):
        assert 0.0 < contraction_factor_affine(ai, bi, ri) < 1.0


def test_contraction_factor_mean_edges():
    # s = 0 removes the nonexpansive term: factor reduces to the affine part
    r = 1.3
    t = 0.4
    rho1 = math.log((math.exp(3 * r) * (1 - t) + t) / (math.exp(r) * (1 - t) + t)) / (2 * r)
    assert abs(contraction_factor_mean(0.0, t, r) - rho1) <= 1e-15
    # t = 1 is the constant map
    assert contraction_factor_mean(0.7, 1.0, 2.0) == 0.0
    assert contraction_factor_uniform(1.0, 2.0) == 0.0
    # direct evaluation at s = t = 1/2, r = 1
    val = contraction_factor_mean(0.5, 0.5, 1.0)
    rho1 = math.log((math.exp(3.0) * 0.5 + 0.5) / (math.exp(1.0) * 0.5 + 0.5)) / 2.0
    a_, b_ = (0.5 * 0.5) / 0.75, 0.5 / 0.75
    expected = rho1 + math.log(
        (b_ * math.exp(-1.0) + a_ * math.exp(2.0 * (1.0 - rho1)))
        / (b_ * math.exp(-1.0) + a_)
    ) / 2.0
    assert abs(val - expected) <= 1e-15
    assert 0.0 < val < 1.0
    with pytest.raises(DomainError):
        contraction_factor_mean(0.5, 0.0, 1.0)


def test_uniform_dominates_mean_factor():
    rng = np.random.default_rng(17)
    for _ in range(100):
        s = float(rng.uniform(0.0, 1.0))
        t = float(rng.uniform(0.05, 1.0))
        r = float(rng.uniform(0.1, 5.0))
        assert contraction_factor_mean(s, t, r) <= contraction_factor_uniform(t, r) + 1e-12
    for t in np.arange(0.1, 1.0 + 1e-9, 0.1):
        for r in np.arange(0.5, 5.0 + 1e-9, 0.5):
            assert contraction_factor_uniform(float(t), float(r)) < 1.0


def test_empirical_contraction_below_factor():
    rng = np.random.default_rng(19)
    for _ in range(40):
        n = int(rng.integers(2, 5))
        s = float(rng.uniform(0.1, 0.9))
        t = float(rng.uniform(0.1, 0.9))
        r = float(rng.uniform(0.5, 2.0))
        anchor = rand_spd(rng, n, 0.5, 2.0)
        mu = product_measure(SMeasure.dirac(s), [(1.0, anchor)])
        x = thompson_ball_point(rng, anchor, r)
        y = thompson_ball_point(rng, anchor, r)
        dxy = distance(x, y)
        if dxy < 1e-9:
            continue
        ratio = distance(iteration_map(x, t, mu), iteration_map(y, t, mu)) / dxy
        assert ratio <= contraction_factor_mean(s, t, r) + 1e-9
