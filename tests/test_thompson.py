import math

import numpy as np
import pytest

from conftest import assert_check, rand_spd
from spdmeans import (
    DomainError,
    NotPositiveDefinite,
    contraction_factor_affine,
    contraction_factor_mean,
    contraction_factor_uniform,
    distance,
    min_scaling,
)
from spdmeans.thompson import _log_spread


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
        _log_spread(w)


@pytest.mark.filterwarnings("error")
def test_distance_of_operands_at_extreme_scales():
    # A is moved onto B's scale by a power of two before whitening, so 1e-300 I
    # whitened against 1e300 I no longer underflows; d = log(1e600)
    assert distance(1e-300 * np.eye(2), 1e300 * np.eye(2)) == pytest.approx(
        600.0 * math.log(10.0), rel=1e-14)
    assert distance(1e300 * np.eye(2), 1e-300 * np.eye(2)) == pytest.approx(
        600.0 * math.log(10.0), rel=1e-14)
    # the gate's symmetrization of 1.7e308 I stays finite
    want = math.log(1.7e308) + 300.0 * math.log(10.0)
    assert distance(1e-300 * np.eye(1), 1.7e308 * np.eye(1)) == pytest.approx(want, rel=1e-14)
    assert distance(1.7e308 * np.eye(2), 1e-300 * np.eye(2)) == pytest.approx(want, rel=1e-14)


@pytest.mark.filterwarnings("error")
def test_min_scaling_of_operands_at_extreme_scales():
    # A is moved onto B's scale by a power of two before whitening; a ratio outside
    # the float range is an error, not inf or a claim that A <= 0 B
    assert min_scaling(1e-150 * np.eye(2), 1e150 * np.eye(2)) == pytest.approx(1e-300, rel=1e-14)
    assert min_scaling(1e150 * np.eye(2), 1e-150 * np.eye(2)) == pytest.approx(1e300, rel=1e-14)
    with pytest.raises(DomainError):
        min_scaling(1e300 * np.eye(2), 1e-300 * np.eye(2))
    with pytest.raises(DomainError):
        min_scaling(1e-300 * np.eye(2), 1e300 * np.eye(2))


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
    assert abs(distance(2 * np.eye(3), np.eye(3)) - math.log(2.0)) <= 1e-12
    got = distance(np.diag([1.0, 4.0]), np.diag([2.0, 1.0]))
    assert abs(got - math.log(4.0)) <= 1e-12


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
    lambda: contraction_factor_affine(math.inf, 1.0, 1.0),
    lambda: contraction_factor_affine(1.0, math.inf, 1.0),
    lambda: contraction_factor_affine(1.0, 1.0, math.inf),
    lambda: contraction_factor_mean(0.5, 0.5, math.inf),
    lambda: contraction_factor_uniform(0.5, math.inf),
], ids=["affine-a", "affine-b", "affine-r", "mean-r", "uniform-r", "affine-a-inf", "affine-b-inf",
        "affine-r-inf", "mean-r-inf", "uniform-r-inf"])
def test_contraction_factors_reject_nan(call):
    # NaN and infinite arguments would give a NaN factor, documented as below 1
    with pytest.raises(DomainError):
        call()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call", [
    lambda: contraction_factor_affine(1.0, 1.0, 300.0),
    lambda: contraction_factor_mean(0.5, 0.5, 300.0),
    lambda: contraction_factor_uniform(0.5, 400.0),
    lambda: contraction_factor_affine(1e308, 1e308, 1.0),
    lambda: contraction_factor_affine(1.0, 1.0, 1e308),
    lambda: contraction_factor_mean(0.5, 0.5, 1e308),
    lambda: contraction_factor_uniform(0.5, 1e308),
], ids=["affine-r300", "mean-r300", "uniform-r400", "affine-a-b-1e308", "affine-r1e308",
        "mean-r1e308", "uniform-r1e308"])
def test_contraction_factors_at_extreme_radius_and_scale(call):
    # e^(3r) overflowed past r ~ 236, b e^(3r) + a past a, b ~ 1e308, and 2r past
    # r ~ 9e307; the log-sum-exp form stays finite, rounding to 1.0 at large r
    assert 0.0 < call() <= 1.0


def test_contraction_factor_affine_depends_on_the_ratio_only():
    rng = np.random.default_rng(14)
    for c in (1e-300, 1e-8, 1e8, 1e300):
        a, b = np.exp(rng.uniform(-3, 3, 2))
        r = float(np.exp(rng.uniform(-2, 2)))
        assert contraction_factor_affine(c * a, c * b, r) == pytest.approx(
            contraction_factor_affine(a, b, r), rel=1e-12)


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


def test_contraction_factor_affine_below_one():
    assert_check("thompson.contraction_formulas", 13, 10000, (1,))


def test_uniform_dominates_mean_factor():
    assert_check("thompson.contraction_formulas", 17, 100, (1,))


def test_empirical_contraction_below_factor():
    assert_check("thompson.contraction_empirical", 19, 40, (2, 3, 4))
