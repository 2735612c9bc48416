import math

import numpy as np
import pytest
import scipy.linalg as sla

from conftest import rand_spd, sym
from spdmeans import (
    EmptyInput,
    NotPositiveDefinite,
    ShapeError,
    apply_scalar_fn,
    congruence,
    geometric_mean,
    loewner_leq,
    matrix_from_json,
    matrix_to_json,
    spd_matrix,
    spectral,
    sym_matrix,
    weighted_arith,
    weighted_harm,
)
from spdmeans.core import spectral_sum, whitened_eigh
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


def test_spectral_identity_and_diagonal():
    w, q = spectral(np.eye(3))
    assert np.allclose(w, 1.0)
    assert np.linalg.norm(q.T @ q - np.eye(3)) <= 1e-12 * 3
    w, _ = spectral(np.diag([4.0, 1.0]))
    assert np.allclose(w, [1.0, 4.0])


def test_spectral_reconstruction_random():
    rng = np.random.default_rng(7)
    a = sym(rng.standard_normal((5, 5)))
    w, q = spectral(a)
    assert np.all(np.diff(w) >= 0)
    err = np.linalg.norm((q * w) @ q.T - a)
    assert err <= 1e-10 * np.linalg.norm(a)
    assert np.linalg.norm(q.T @ q - np.eye(5)) <= 1e-12 * 5


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
