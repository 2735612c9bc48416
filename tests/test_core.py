import math

import numpy as np
import pytest
import scipy.linalg as sla

from conftest import rand_spd
from spdmeans import (
    DomainError,
    EmptyInput,
    NotPositiveDefinite,
    ShapeError,
    SMeasure,
    PMeasure,
    SolverConfig,
    congruence,
    contraction_factor_affine,
    contraction_factor_mean,
    contraction_factor_uniform,
    distance,
    geometric_mean,
    induced_mean,
    iteration_map,
    karcher_residual,
    logdet_divergence,
    loewner_leq,
    matrix_from_json,
    matrix_to_json,
    measure_leq,
    min_scaling,
    objective,
    power_mean,
    product_measure,
    riemannian_gradient,
    sandwich_check,
    spd_matrix,
    weighted_arith,
    weighted_harm,
)
from spdmeans.core import _arith, _eigh, _spd, _sym, spectral_sum, sym_matrix, whitened_eigh
from spdmeans.errors import NumericalFailure, SingularTransform
from spdmeans.verify import random_spd


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


@pytest.mark.filterwarnings("error")
def test_symmetrization_does_not_overflow_near_the_float_maximum():
    # 0.5 A + 0.5 A.T stays finite where A + A.T overflows; in the normal range it
    # rounds as (A + A.T) / 2
    big = 1.7e308 * np.eye(2)
    assert np.array_equal(spd_matrix(big), big)
    assert np.array_equal(_spd([big, np.eye(2)])[0][0], big)
    assert np.array_equal(sym_matrix([[1.7e308, 1.0], [3.0, -1.7e308]]),
                          [[1.7e308, 2.0], [2.0, -1.7e308]])
    rng = np.random.default_rng(4)
    a = rng.standard_normal((3, 3))
    assert sym_matrix(a).tobytes() == (0.5 * (a + a.T)).tobytes()


@pytest.mark.filterwarnings("error")
def test_results_near_the_float_maximum_do_not_overflow():
    # the one symmetrizer, 0.5 A + (0.5 A).T, also symmetrizes the averaged and the
    # reassembled results, so a mean of matrices near the float maximum stays finite
    big = 1.7e308 * np.eye(2)
    assert np.array_equal(weighted_arith([(0.5, big), (0.5, big)]), big)
    g = geometric_mean(big, np.eye(2), 0.5)
    assert np.allclose(g, math.sqrt(1.7e308) * np.eye(2), rtol=1e-14, atol=0.0)
    a = np.random.default_rng(5).standard_normal((2, 3, 3))
    assert _sym(a).tobytes() == (0.5 * (a + a.swapaxes(1, 2))).tobytes()


# apply_scalar_fn's spectral route, now core's one eigh and spectral_sum: fn on the
# spectrum of an SPD matrix, reassembled as Q diag(fn(w)) Q.T


def _spectral_fn(a, fn):
    w, q = _eigh(spd_matrix(a))
    return spectral_sum(q[None], fn(w)[None])


def test_apply_scalar_fn_log_and_identity():
    a = np.diag([math.e, math.e**2])
    assert np.allclose(_spectral_fn(a, np.log), np.diag([1.0, 2.0]), atol=1e-12)
    rng = np.random.default_rng(3)
    b = rand_spd(rng, 4)
    assert np.allclose(_spectral_fn(b, lambda x: x), b, atol=1e-12)


def test_apply_scalar_fn_sqrt_involution():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = rand_spd(rng, 5)
        r = _spectral_fn(a, np.sqrt)
        assert np.linalg.norm(r @ r - a) <= 1e-10 * np.linalg.norm(a)


def test_apply_scalar_fn_inverse_consistency():
    rng = np.random.default_rng(5)
    a = rand_spd(rng, 4)
    inv = _spectral_fn(a, lambda x: 1.0 / x)
    assert np.linalg.norm(inv - np.linalg.inv(a)) <= 1e-10 * np.linalg.norm(inv)


def test_whitened_eigh_and_spectral_sum_on_a_stack():
    rng = np.random.default_rng(12)
    x = rand_spd(rng, 4)
    mats = np.stack([rand_spd(rng, 4) for _ in range(5)])
    f, c, lam, q = whitened_eigh(x, mats, np.linalg.cholesky(mats))
    assert lam.shape == (5, 4) and q.shape == (5, 4, 4)
    assert np.allclose(f @ f.T, x, atol=1e-12) and np.allclose(c.T @ f, np.eye(4), atol=1e-12)
    white = [c.T @ a @ c for a in mats]
    for k, a in enumerate(mats):
        ref = sla.eigh(a, x, eigvals_only=True)
        assert np.allclose(lam[k], ref, rtol=1e-10, atol=0.0)
        assert np.allclose(spectral_sum(q[k:k + 1], lam[k:k + 1]), white[k], atol=1e-10)
    w = rng.uniform(0.5, 1.5, 5)
    assert np.allclose(
        spectral_sum(q, w[:, None] * lam), sum(wk * m for wk, m in zip(w, white)), atol=1e-10
    )
    # with X's frame F (X = F F.T) the sum leaves the whitened frame: sum_k w_k A_k
    back = spectral_sum(q, w[:, None] * lam, f)
    assert np.array_equal(back, back.T)
    assert np.allclose(back, sum(wk * a for wk, a in zip(w, mats)), rtol=1e-10, atol=1e-10)


def test_measure_factors_are_read_only_factors_of_the_atoms(monkeypatch):
    # the factors F = V w^(1/2) come from the one stacked eigh that gates the atoms
    rng = np.random.default_rng(14)
    mu = PMeasure([(0.5, rand_spd(rng, 3), SMeasure.lebesgue(4)) for _ in range(2)])
    assert mu.factors.shape == mu.matrices.shape and not mu.factors.flags.writeable
    assert np.allclose(mu.factors @ mu.factors.swapaxes(1, 2), mu.matrices, rtol=1e-12, atol=1e-12)
    assert np.array_equal(mu.factors, _spd(mu.matrices)[1])

    # a decomposition LAPACK refuses is a NumericalFailure
    def refused(a):
        raise np.linalg.LinAlgError("no convergence")
    monkeypatch.setattr(np.linalg, "eigh", refused)
    with pytest.raises(NumericalFailure, match="eigendecomposition"):
        _spd(mu.matrices)


def test_whitened_spectra_are_accurate_relative_to_each_eigenvalue():
    # whitening the atom's own factor, as its gate gives it, keeps every eigenvalue of
    # X^(-1/2) A X^(-1/2) to relative accuracy: 60 pairs with spectra in [1e-5, 1e5]
    # against 50-digit arithmetic (Cholesky whitening, then a symmetric eigensolver); the
    # product of the symmetric roots, X^(-1/2) A X^(-1/2) in floats, was off by up to
    # 2.2e-2 here
    from mpmath import mp

    rng = np.random.default_rng(1)
    worst = 0.0
    with mp.workdps(50):
        for _ in range(60):
            x, a = (random_spd(rng, 4, 1e-5, 1e5) for _ in range(2))
            lam = whitened_eigh(x, *_spd(a[None])[:2])[2][0]
            li = mp.inverse(mp.cholesky(mp.matrix(x.tolist())))
            ref = mp.eigsy(li * mp.matrix(a.tolist()) * li.T, eigvals_only=True)
            ref = np.sort([float(v) for v in ref])
            worst = max(worst, float(np.max(np.abs(lam - ref) / ref)))
    assert worst <= 1e-6


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("c", [1e200 * np.eye(2), 1e155 * np.array([[1.0, 1.0], [0.0, 1.0]])],
                         ids=["scaled", "sheared"])
def test_congruence_that_overflows_raises_domain_error(c):
    # a well-conditioned, finite C whose C A C.T leaves the float range is an error,
    # not a matrix of inf, and no overflow warning escapes
    with pytest.raises(DomainError):
        congruence(c, np.eye(2))


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


@pytest.mark.filterwarnings("error")
def test_geometric_mean_of_operands_at_extreme_scales():
    # A #_t B = 2^(-k t) (A #_t 2^k B), with 2^k B on the scale of A; whitening
    # 1e300 I against 1e-300 I directly overflows
    a, b = 1e-300 * np.eye(2), 1e300 * np.eye(2)
    assert np.allclose(geometric_mean(a, b, 0.5), np.eye(2), rtol=1e-14, atol=0.0)
    assert np.allclose(geometric_mean(a, b, 0.0), a, rtol=1e-14, atol=0.0)
    assert np.allclose(geometric_mean(a, b, 1.0), b, rtol=1e-14, atol=0.0)


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
_B = np.array([[1.5, -0.25], [-0.25, 0.75]])
_INDEFINITE = np.diag([1.0, -0.5])
_NAN = np.array([[1.0, math.nan], [math.nan, 1.0]])
_OVERFLOWING = np.array([[1e-300, 1e9], [1e9, 1e-300]])  # 2^k of it overflows beside _SPD
_HALF = SMeasure.dirac(0.5)
_MU = product_measure(_HALF, [(1.0, _SPD)])

# every SPD slot of a public function: the slot takes m, every other operand is valid
_SPD_SLOTS = [
    pytest.param(lambda m: geometric_mean(m, _SPD, 0.5), id="geo-first"),
    pytest.param(lambda m: geometric_mean(_SPD, m, 0.5), id="geo-second"),
    pytest.param(lambda m: logdet_divergence(m, _SPD, 0.5), id="ld-first"),
    pytest.param(lambda m: logdet_divergence(_SPD, m, 0.5), id="ld-second"),
    pytest.param(lambda m: min_scaling(m, _SPD), id="min-scaling-first"),
    pytest.param(lambda m: min_scaling(_SPD, m), id="min-scaling-second"),
    pytest.param(lambda m: distance(m, _SPD), id="distance-first"),
    pytest.param(lambda m: distance(_SPD, m), id="distance-second"),
    pytest.param(lambda m: karcher_residual(m, _MU), id="residual-point"),
    pytest.param(lambda m: iteration_map(m, 0.5, _MU), id="iteration-map-point"),
    pytest.param(lambda m: objective(m, _MU), id="objective-point"),
    pytest.param(lambda m: riemannian_gradient(m, _MU), id="gradient-point"),
    pytest.param(lambda m: sandwich_check(m, _MU), id="sandwich-point"),
    pytest.param(lambda m: weighted_arith([(0.5, m), (0.5, _SPD)]), id="arith-first"),
    pytest.param(lambda m: weighted_arith([(0.5, _SPD), (0.5, m)]), id="arith-second"),
    pytest.param(lambda m: weighted_harm([(0.5, m), (0.5, _SPD)]), id="harm-first"),
    pytest.param(lambda m: weighted_harm([(0.5, _SPD), (0.5, m)]), id="harm-second"),
    pytest.param(lambda m: power_mean(0.5, [(0.5, m), (0.5, _SPD)]), id="power-first"),
    pytest.param(lambda m: power_mean(0.5, [(0.5, _SPD), (0.5, m)]), id="power-second"),
]

# slots that take any symmetric matrix, definite or not, and congruence's transform,
# which need only be finite, square and nonsingular
_SYM_SLOTS = [
    pytest.param(lambda m: loewner_leq(m, _SPD), id="loewner-first"),
    pytest.param(lambda m: loewner_leq(_SPD, m), id="loewner-second"),
    pytest.param(lambda m: congruence(_SPD, m), id="congruence-matrix"),
    pytest.param(lambda m: congruence(m, _SPD), id="congruence-transform"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad, error", [(_INDEFINITE, NotPositiveDefinite), (_NAN, DomainError),
                                        (np.eye(3), ShapeError),
                                        (_OVERFLOWING, NotPositiveDefinite)],
                         ids=["indefinite", "nan", "wrong-dim", "indefinite-overflowing"])
@pytest.mark.parametrize("call", _SPD_SLOTS)
def test_spectral_layer_rejects_non_positive_operands(call, bad, error):
    # the one rule, core._pd_rule, raises on the first spectrum of the operand, before any
    # whitened spectrum is taken; a pair's indefinite operand whose scaled off-diagonal
    # overflows fails it too, without a warning
    with pytest.raises(error):
        call(bad)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call", _SYM_SLOTS)
def test_symmetric_slots_take_indefinite_but_not_nan_or_non_square(call):
    call(_INDEFINITE)
    with pytest.raises(DomainError):
        call(_NAN)
    with pytest.raises(ShapeError):
        call(np.ones((2, 3)))


@pytest.mark.parametrize("call", [
    lambda a, b: geometric_mean(a, b, 0.3),
    lambda a, b: logdet_divergence(a, b, 0.3),
    lambda a, b: min_scaling(a, b),
    lambda a, b: distance(a, b),
    lambda a, b: karcher_residual(a, product_measure(_HALF, [(1.0, b)])),
    lambda a, b: iteration_map(a, 0.5, product_measure(_HALF, [(1.0, b)])),
    lambda a, b: objective(a, product_measure(_HALF, [(1.0, b)])),
    lambda a, b: riemannian_gradient(a, product_measure(_HALF, [(1.0, b)])),
    lambda a, b: sandwich_check(a, product_measure(_HALF, [(0.5, a), (0.5, b)])),
    lambda a, b: weighted_arith([(0.5, a), (0.5, b)]),
    lambda a, b: weighted_harm([(0.5, a), (0.5, b)]),
    lambda a, b: power_mean(0.5, [(0.5, a), (0.5, b)]).mean,
    lambda a, b: loewner_leq(a, b),
    lambda a, b: congruence(a, b),
], ids=["geometric_mean", "logdet_divergence", "min_scaling", "distance",
        "karcher_residual", "iteration_map", "objective", "riemannian_gradient",
        "sandwich_check", "weighted_arith", "weighted_harm", "power_mean", "loewner_leq",
        "congruence"])
def test_two_operand_functions_take_nested_lists(call):
    # a nested-list operand in either slot gives the bytes of its array
    want = np.asarray(call(_SPD, _B)).tobytes()
    assert np.asarray(call(_SPD.tolist(), _B)).tobytes() == want
    assert np.asarray(call(_SPD, _B.tolist())).tobytes() == want


@pytest.mark.parametrize("call", [
    pytest.param(lambda a, b: geometric_mean(a, b, 0.3), id="geometric_mean"),
    pytest.param(min_scaling, id="min_scaling"),
    pytest.param(distance, id="distance"),
])
def test_a_pair_takes_three_decompositions(monkeypatch, call):
    # the frame is gated by the eigh that whitens it, the other operand by the eigh that
    # factors it: three matrices through eigh (the frame, the operand, its whitened Gram)
    seen = {"eigh": 0, "eigvalsh": 0}

    def counted(name):
        real = getattr(np.linalg, name)

        def wrapper(a, *args, **kwargs):
            seen[name] += math.prod(np.shape(a)[:-2])
            return real(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, wrapper)

    counted("eigh")
    counted("eigvalsh")
    call(_SPD, _B)
    assert seen == {"eigh": 3, "eigvalsh": 0}


_RAGGED = [[1.0, 0.0], [0.0]]


@pytest.mark.parametrize("call", [
    lambda: spd_matrix(_RAGGED),
    lambda: sym_matrix(_RAGGED),
    lambda: _spd([np.eye(2), np.eye(3)]),
    lambda: PMeasure([(1.0, _RAGGED, _HALF)]),
    lambda: geometric_mean(_RAGGED, _SPD, 0.5),
], ids=["spd_matrix", "sym_matrix", "stack", "PMeasure", "geometric_mean"])
def test_ragged_matrices_raise_shape_error(call):
    with pytest.raises(ShapeError):
        call()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call", [
    pytest.param(spd_matrix, id="spd_matrix"),
    pytest.param(lambda m: weighted_arith([(1.0, m)]), id="weighted_arith"),
    pytest.param(lambda m: PMeasure([(1.0, m, _HALF)]), id="PMeasure"),
    pytest.param(lambda m: geometric_mean(_SPD, m, 0.5), id="geometric_mean"),
    pytest.param(lambda m: distance(m, _SPD), id="distance"),
    pytest.param(lambda m: loewner_leq(m, _SPD), id="loewner_leq"),
    pytest.param(lambda m: congruence(m, _SPD), id="congruence-transform"),
])
def test_complex_matrices_raise_shape_error(call):
    # a complex dtype is refused before the float cast, which would drop its imaginary part
    # (spd_matrix(I (1 + 1j)) read the identity) with only a ComplexWarning
    with pytest.raises(ShapeError, match="must be real"):
        call(np.eye(2) * (1 + 1j))


@pytest.mark.parametrize("bad, error", [(_INDEFINITE, NotPositiveDefinite), (_NAN, DomainError)],
                         ids=["indefinite", "nan"])
def test_weighted_harm_checks_its_atoms_once(bad, error):
    with pytest.raises(error, match="matrix 1 is" if error is NotPositiveDefinite else "finite"):
        weighted_harm([(0.5, _SPD), (0.5, bad)])


def test_weighted_harm_decomposes_each_atom_once(monkeypatch):
    # the stacked eigh that inverts the atoms also gates them: no eigvalsh runs, and an
    # indefinite atom is still named by its index
    rng = np.random.default_rng(35)
    pairs = [(0.2, rand_spd(rng, 3)) for _ in range(5)]
    matrices = {"eigh": 0, "eigvalsh": 0}

    def counted(name):
        real = getattr(np.linalg, name)

        def wrapper(a, *args, **kwargs):
            matrices[name] += int(np.prod(np.shape(a)[:-2]))
            return real(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, wrapper)

    counted("eigh")
    counted("eigvalsh")
    weighted_harm(pairs)
    assert matrices == {"eigh": 5, "eigvalsh": 0}
    pairs[3] = (0.2, np.diag([1.0, -1e-3, 2.0]))
    with pytest.raises(NotPositiveDefinite, match="matrix 3 is not positive definite"):
        weighted_harm(pairs)


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


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-12])
def test_loewner_tolerance_must_be_finite_and_nonnegative(tol):
    # a NaN tolerance made every comparison False: 2I >= I read as unordered
    with pytest.raises(DomainError):
        loewner_leq(np.eye(2), 2 * np.eye(2), tol)


@pytest.mark.filterwarnings("error")
def test_loewner_order_at_every_finite_scale():
    # B - A or its norm overflowed: 1e200 I <= diag(1, 2, 3) read True, and the pair at
    # -+1e308 leaked overflow warnings and then an untyped LinAlgError
    big, small = 1e200 * np.eye(3), np.diag([1.0, 2.0, 3.0])
    assert not loewner_leq(big, small) and loewner_leq(small, big)
    top = 1e308 * np.eye(3)
    assert loewner_leq(-top, top) and not loewner_leq(top, -top)
    # the rule lambda_min(B - A) >= -tol max(||A||_F, ||B||_F) itself, wherever it is finite,
    # on pairs whose least eigenvalue of B - A lies within 1% of the threshold either way
    rng = np.random.default_rng(61)
    q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    a, tol, seen = rand_spd(rng, 3), 1e-6, set()
    for scale in (2.0**-300, 2.0**-20, 1.0, 2.0**20, 2.0**300):
        for side in (0.99, 1.01):
            lam = np.array([0.0, 1.0, 2.0]) * scale
            b = scale * a + _sym((q * lam) @ q.T)
            lam[0] = -side * tol * max(np.linalg.norm(scale * a), np.linalg.norm(b))
            b = scale * a + _sym((q * lam) @ q.T)
            norm = max(np.linalg.norm(scale * a), np.linalg.norm(b))
            rule = bool(np.linalg.eigvalsh(b - scale * a)[0] >= -tol * norm)
            assert loewner_leq(scale * a, b, tol) == rule
            seen.add(rule)
    assert seen == {True, False}


@pytest.mark.filterwarnings("error")
def test_order_predicates_are_scale_free():
    # the rule is relative to the operands' norms, so scaling every operand by c = 2^k
    # changes no answer; an absolute term once read 2c I <= c I as True at c = 1e-12,
    # and ten times the arithmetic mean as inside the sandwich there
    a = np.diag([1.0, 2.0, 3.0])
    b = np.array([[2.0, 0.5, 0.0], [0.5, 3.0, 0.1], [0.0, 0.1, 4.0]])
    nu = SMeasure.lebesgue()

    def answers(c):
        mu = product_measure(nu, [(0.5, c * a), (0.5, c * np.diag([3.0, 1.0, 2.0]))])
        mid = weighted_arith(mu.matrix_pairs())
        double = product_measure(nu, [(0.5, 2.0 * c * a), (0.5, 2.0 * c * b)])
        return (loewner_leq(2.0 * c * np.eye(3), c * np.eye(3)),
                loewner_leq(c * np.eye(3), 2.0 * c * np.eye(3)),
                loewner_leq((1.0 + 1e-12) * c * b, c * b),
                loewner_leq((1.0 + 1e-8) * c * b, c * b),
                sandwich_check(10.0 * c * np.eye(3), mu),
                sandwich_check(0.1 * c * np.eye(3), mu),
                sandwich_check(mid, mu),
                measure_leq(product_measure(nu, [(0.5, c * a), (0.5, c * b)]), double),
                measure_leq(double, product_measure(nu, [(0.5, c * a), (0.5, c * b)])))

    expected = (False, True, True, False, False, False, True, True, False)
    assert answers(1.0) == expected
    assert [k for k in range(-300, 301) if answers(2.0**k) != expected] == []


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", ["0.5", None, [0.5], True], ids=["str", "none", "list", "bool"])
@pytest.mark.parametrize("call", [
    pytest.param(lambda v: geometric_mean(_SPD, _B, v), id="geometric_mean-t"),
    pytest.param(lambda v: logdet_divergence(_SPD, _B, v), id="logdet_divergence-s"),
    pytest.param(lambda v: iteration_map(_B, v, _MU), id="iteration_map-t"),
    pytest.param(lambda v: induced_mean(v, _MU), id="induced_mean-t"),
    pytest.param(lambda v: power_mean(v, [(1.0, _SPD)]), id="power_mean-t"),
    pytest.param(lambda v: SolverConfig(fp_tol=v), id="SolverConfig-fp_tol"),
    pytest.param(lambda v: SolverConfig(lambda_tol=v), id="SolverConfig-lambda_tol"),
    pytest.param(lambda v: SolverConfig(grad_tol=v), id="SolverConfig-grad_tol"),
    pytest.param(lambda v: loewner_leq(_SPD, _B, v), id="loewner_leq-tol"),
    pytest.param(lambda v: contraction_factor_affine(v, 1.0, 1.0), id="affine-a"),
    pytest.param(lambda v: contraction_factor_affine(1.0, v, 1.0), id="affine-b"),
    pytest.param(lambda v: contraction_factor_affine(1.0, 1.0, v), id="affine-r"),
    pytest.param(lambda v: contraction_factor_mean(v, 0.5, 1.0), id="mean-s"),
    pytest.param(lambda v: contraction_factor_mean(0.5, v, 1.0), id="mean-t"),
    pytest.param(lambda v: contraction_factor_mean(0.5, 0.5, v), id="mean-r"),
    pytest.param(lambda v: contraction_factor_uniform(v, 1.0), id="uniform-t"),
    pytest.param(lambda v: contraction_factor_uniform(0.5, v), id="uniform-r"),
])
def test_scalar_parameters_take_only_real_numbers(call, value):
    # a string, None or a list raised an untyped TypeError from the range comparison, and a
    # bool was taken as 0 or 1: induced_mean(True, mu) solved at t = 1
    with pytest.raises(DomainError, match="must be a number"):
        call(value)


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


def test_arithmetic_mean_sums_in_atom_order():
    # one reduction over the stack, bit for bit the loop that adds the atoms in order
    rng = np.random.default_rng(30)
    w = rng.uniform(0.5, 1.5, 60)
    mats = np.stack([rand_spd(rng, 4) for _ in range(60)])
    acc = np.zeros((4, 4))
    for wk, m in zip(w, mats):
        acc = acc + wk * m
    assert _arith(w, mats).tobytes() == _sym(acc).tobytes()


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
