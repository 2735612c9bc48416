import math

import numpy as np
import pytest
import scipy.linalg as sla

from conftest import rand_spd
from spdmeans import (
    DomainError,
    EmptyInput,
    NotPositiveDefinite,
    NumericalFailure,
    ShapeError,
    SMeasure,
    apply_scalar_fn,
    PMeasure,
    congruence,
    distance,
    eval_mean,
    geometric_mean,
    karcher_residual,
    logdet_divergence,
    loewner_leq,
    matrix_from_json,
    matrix_to_json,
    min_scaling,
    product_measure,
    spd_matrix,
    sym_matrix,
    weighted_arith,
    weighted_harm,
)
from spdmeans.core import spd_stack, spectral_sum, whitened_eigh
from spdmeans.errors import SingularTransform


def test_spd_matrix_symmetrizes_and_checks():
    a = spd_matrix([[2.0, 1.0 + 1e-13], [1.0, 2.0]])
    assert np.allclose(a, a.T, atol=0)
    with pytest.raises(NotPositiveDefinite):
        spd_matrix([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(ShapeError):
        spd_matrix(np.ones((2, 3)))
    # sym_matrix symmetrizes without the positivity check
    s = sym_matrix([[0.0, 1.0], [3.0, -2.0]])
    assert np.allclose(s, [[0.0, 2.0], [2.0, -2.0]])


def test_apply_scalar_fn_log_and_identity():
    a = np.diag([math.e, math.e**2])
    assert np.allclose(apply_scalar_fn(a, np.log), np.diag([1.0, 2.0]), atol=1e-12)
    rng = np.random.default_rng(3)
    b = rand_spd(rng, 4)
    assert np.allclose(apply_scalar_fn(b, lambda x: x), b, atol=1e-12)


def test_apply_scalar_fn_sqrt_involution():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = rand_spd(rng, 5)
        r = apply_scalar_fn(a, np.sqrt)
        assert np.linalg.norm(r @ r - a) <= 1e-10 * np.linalg.norm(a)


def test_apply_scalar_fn_domain_error():
    indefinite = np.diag([1.0, -2.0])
    with pytest.raises(Exception) as info:
        apply_scalar_fn(indefinite, np.log)
    assert "undefined" in str(info.value)


def test_apply_scalar_fn_inverse_consistency():
    rng = np.random.default_rng(5)
    a = rand_spd(rng, 4)
    inv = apply_scalar_fn(a, lambda x: 1.0 / x)
    assert np.linalg.norm(inv - np.linalg.inv(a)) <= 1e-10 * np.linalg.norm(inv)


def test_whitened_eigh_and_spectral_sum_on_a_stack():
    rng = np.random.default_rng(12)
    x = rand_spd(rng, 4)
    mats = np.stack([rand_spd(rng, 4) for _ in range(5)])
    rs, irs, lam, q = whitened_eigh(x, mats)
    assert lam.shape == (5, 4) and q.shape == (5, 4, 4)
    assert np.allclose(rs @ rs, x, atol=1e-12) and np.allclose(rs @ irs, np.eye(4), atol=1e-12)
    white = [irs @ a @ irs for a in mats]
    for k, a in enumerate(mats):
        ref = sla.eigh(a, x, eigvals_only=True)
        assert np.allclose(lam[k], ref, rtol=1e-10, atol=0.0)
        assert np.allclose(spectral_sum(q[k:k + 1], lam[k:k + 1]), white[k], atol=1e-10)
    w = rng.uniform(0.5, 1.5, 5)
    assert np.allclose(
        spectral_sum(q, w[:, None] * lam), sum(wk * m for wk, m in zip(w, white)), atol=1e-10
    )
    # with rs = X^(1/2) the sum leaves the whitened frame: sum_k w_k A_k
    back = spectral_sum(q, w[:, None] * lam, rs)
    assert np.array_equal(back, back.T)
    assert np.allclose(back, sum(wk * a for wk, a in zip(w, mats)), rtol=1e-10, atol=1e-10)


def test_congruence_basics_and_roundtrip():
    rng = np.random.default_rng(13)
    a = rand_spd(rng, 3)
    assert np.allclose(congruence(np.eye(3), a), a)
    assert np.allclose(congruence(2.0 * np.eye(2), np.eye(2)), 4.0 * np.eye(2))
    c = rng.standard_normal((3, 3)) + 2.0 * np.eye(3)
    back = congruence(np.linalg.inv(c), congruence(c, a))
    assert np.linalg.norm(back - a) <= 1e-9 * (1 + np.linalg.norm(a))
    with pytest.raises(SingularTransform):
        congruence(np.zeros((3, 3)), a)


def test_geometric_mean_cases():
    rng = np.random.default_rng(17)
    a = rand_spd(rng, 3)
    for t in (0.0, 0.3, 1.0):
        assert np.allclose(geometric_mean(a, a, t), a, atol=1e-12)
    two = np.array([[2.0]])
    eight = np.array([[8.0]])
    assert np.allclose(geometric_mean(two, eight, 0.5), [[4.0]])
    got = geometric_mean(np.diag([2.0, 2.0]), np.diag([8.0, 2.0]), 0.5)
    assert np.allclose(got, np.diag([4.0, 2.0]), atol=1e-12)


def test_geometric_mean_symmetry_and_equivariance():
    rng = np.random.default_rng(19)
    for _ in range(10):
        a, b = rand_spd(rng, 4), rand_spd(rng, 4)
        t = float(rng.uniform(0.0, 1.0))
        g1 = geometric_mean(a, b, t)
        g2 = geometric_mean(b, a, 1.0 - t)
        assert np.linalg.norm(g1 - g2) <= 1e-10 * (1 + np.linalg.norm(g1))
        c = rng.standard_normal((4, 4)) + 2.0 * np.eye(4)
        lhs = congruence(c, g1)
        rhs = geometric_mean(congruence(c, a), congruence(c, b), t)
        assert np.linalg.norm(lhs - rhs) <= 1e-9 * (1 + np.linalg.norm(lhs))


_SPD = np.array([[2.0, 0.5], [0.5, 1.0]])
_INDEFINITE = np.diag([1.0, -0.5])
_NAN = np.array([[1.0, math.nan], [math.nan, 1.0]])
_HALF = SMeasure.dirac(0.5)
# a NaN spectrum passes ``w <= 0`` tests; LAPACK may also refuse a NaN matrix outright
_BAD_SPECTRUM = (NotPositiveDefinite, NumericalFailure)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad, error", [(_INDEFINITE, NotPositiveDefinite), (_NAN, _BAD_SPECTRUM)],
                         ids=["indefinite", "nan"])
@pytest.mark.parametrize("call", [
    lambda m: geometric_mean(m, _SPD, 0.5),
    lambda m: geometric_mean(_SPD, m, 0.5),
    lambda m: eval_mean(_HALF, m, _SPD),
    lambda m: eval_mean(_HALF, _SPD, m),
    lambda m: logdet_divergence(m, _SPD, 0.5),
    lambda m: logdet_divergence(_SPD, m, 0.5),
    lambda m: karcher_residual(m, product_measure(_HALF, [(1.0, _SPD)])),
], ids=["geo-first", "geo-second", "mean-first", "mean-second", "ld-first", "ld-second",
        "residual-point"])
def test_spectral_layer_rejects_non_positive_operands(call, bad, error):
    with pytest.raises(error):
        call(bad)


@pytest.mark.parametrize("call", [
    lambda a, b: geometric_mean(a, b, 0.3),
    lambda a, b: eval_mean(_HALF, a, b),
    lambda a, b: logdet_divergence(a, b, 0.3),
    lambda a, b: min_scaling(a, b),
    lambda a, b: distance(a, b),
], ids=["geometric_mean", "eval_mean", "logdet_divergence", "min_scaling", "distance"])
def test_two_operand_functions_take_nested_lists(call):
    # a nested-list operand in either slot gives the bytes of its array
    b = np.array([[1.5, -0.25], [-0.25, 0.75]])
    want = np.asarray(call(_SPD, b)).tobytes()
    assert np.asarray(call(_SPD.tolist(), b)).tobytes() == want
    assert np.asarray(call(_SPD, b.tolist())).tobytes() == want


_RAGGED = [[1.0, 0.0], [0.0]]


@pytest.mark.parametrize("call", [
    lambda: spd_matrix(_RAGGED),
    lambda: sym_matrix(_RAGGED),
    lambda: spd_stack([np.eye(2), np.eye(3)]),
    lambda: PMeasure([(1.0, _RAGGED, _HALF)]),
    lambda: geometric_mean(_RAGGED, _SPD, 0.5),
], ids=["spd_matrix", "sym_matrix", "spd_stack", "PMeasure", "geometric_mean"])
def test_ragged_matrices_raise_shape_error(call):
    with pytest.raises(ShapeError):
        call()


@pytest.mark.parametrize("bad, error", [(_INDEFINITE, NotPositiveDefinite), (_NAN, DomainError)],
                         ids=["indefinite", "nan"])
def test_weighted_harm_checks_its_atoms_once(bad, error):
    with pytest.raises(error, match="matrix 1 is" if error is NotPositiveDefinite else "finite"):
        weighted_harm([(0.5, _SPD), (0.5, bad)])


def test_loewner_order():
    rng = np.random.default_rng(23)
    a = rand_spd(rng, 3)
    assert loewner_leq(a, a, 0.0)
    assert loewner_leq(np.eye(3), 2 * np.eye(3), 0.0)
    assert not loewner_leq(2 * np.eye(3), np.eye(3), 0.0)
    # eigenvalues of B - A are (1, -1): incomparable both ways
    assert not loewner_leq(np.diag([1.0, 3.0]), np.diag([2.0, 2.0]), 1e-12)
    assert not loewner_leq(np.diag([2.0, 2.0]), np.diag([1.0, 3.0]), 1e-12)
    with pytest.raises(ShapeError):
        loewner_leq(np.eye(2), np.eye(3))


def test_weighted_means():
    rng = np.random.default_rng(29)
    a = rand_spd(rng, 3)
    assert np.allclose(weighted_arith([(1.0, a)]), a)
    assert np.allclose(weighted_harm([(1.0, a)]), a, atol=1e-12)
    pairs = [(0.5, np.array([[2.0]])), (0.5, np.array([[8.0]]))]
    assert np.allclose(weighted_arith(pairs), [[5.0]])
    assert np.allclose(weighted_harm(pairs), [[3.2]])
    with pytest.raises(EmptyInput):
        weighted_arith([])


def test_harmonic_below_arithmetic_and_agh_sandwich():
    rng = np.random.default_rng(31)
    for _ in range(10):
        a, b = rand_spd(rng, 4), rand_spd(rng, 4)
        t = float(rng.uniform(0.05, 0.95))
        pairs = [(1.0 - t, a), (t, b)]
        harm = weighted_harm(pairs)
        arith = weighted_arith(pairs)
        geo = geometric_mean(a, b, t)
        assert loewner_leq(harm, arith, 1e-10)
        assert loewner_leq(harm, geo, 1e-10)
        assert loewner_leq(geo, arith, 1e-10)


def test_matrix_json_roundtrip():
    rng = np.random.default_rng(37)
    a = rand_spd(rng, 4)
    again = matrix_from_json(matrix_to_json(a))
    assert np.array_equal(a, again)
    # slightly asymmetric input is symmetrized by the parser
    obj = matrix_to_json(a)
    obj["data"][0][1] += 1e-14
    assert np.allclose(matrix_from_json(obj), a, atol=1e-13)
