import math

import numpy as np
import pytest

from conftest import measure_json, rand_spd
from spdmeans import (
    DomainError,
    EmptyInput,
    Incomparable,
    MeasureError,
    NotPositiveDefinite,
    PMeasure,
    SMeasure,
    ShapeError,
    congruence_measure,
    matrix_from_json,
    matrix_to_json,
    measure_leq,
    pmeasure_from_json,
    power_mean,
    product_measure,
    weighted_arith,
    weighted_harm,
)
from spdmeans import core, measures
from spdmeans.monotone import smeasure_from_json
from spdmeans.verify import random_measure


def test_pmeasure_validation():
    rng = np.random.default_rng(1)
    a = rand_spd(rng, 3)
    with pytest.raises(MeasureError):
        PMeasure([])
    with pytest.raises(MeasureError):
        PMeasure([(0.6, a, SMeasure.dirac(0.5)), (0.6, a, SMeasure.dirac(0.5))])
    with pytest.raises(ShapeError):
        PMeasure([(0.5, a, SMeasure.dirac(0.5)), (0.5, rand_spd(rng, 4), SMeasure.dirac(0.5))])
    with pytest.raises(ShapeError):
        PMeasure([(1.0, np.ones((2, 3)), SMeasure.dirac(0.5))])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "half", "0.5"])
def test_weights_must_be_finite_positive_numbers(bad):
    # NaN fails both ``w <= 0`` and ``|sum - 1| > 1e-12``; the one weight rule tests finiteness
    a = rand_spd(np.random.default_rng(11), 3)
    with pytest.raises(MeasureError):
        PMeasure([(bad, a, SMeasure.dirac(0.5)), (0.5, a, SMeasure.dirac(0.5))])
    with pytest.raises(MeasureError):
        weighted_arith([(bad, a), (0.5, a)])
    with pytest.raises(MeasureError):
        power_mean(0.5, [(bad, a), (0.5, a)])


@pytest.mark.parametrize("s, v", [(0.3, math.nan), (0.3, math.inf), (math.nan, 0.5),
                                  (math.inf, 0.5), (-0.5, 0.5), (1.5, 0.5), ("0.3", 0.5),
                                  (0.3, "0.5")])
def test_atomic_measure_rejects_bad_weights_and_locations(s, v):
    with pytest.raises(MeasureError):
        SMeasure.from_atoms([(s, v), (0.6, 0.5)])


def test_power_mean_rejects_mixed_dimensions_as_shape_error():
    rng = np.random.default_rng(12)
    with pytest.raises(ShapeError):
        power_mean(0.5, [(0.5, rand_spd(rng, 2)), (0.5, rand_spd(rng, 3))])


_NU = SMeasure.dirac(0.5)


def _with_nu(pairs):
    """A weighted matrix list as PMeasure's atoms: nu appended to each tuple entry."""
    if not isinstance(pairs, list):
        return pairs
    return [(*p, _NU) if isinstance(p, tuple) else p for p in pairs]


_LIST_READERS = {
    "PMeasure": lambda pairs: PMeasure(_with_nu(pairs)),
    "product_measure": lambda pairs: product_measure(_NU, pairs),
    "weighted_arith": weighted_arith,
    "weighted_harm": weighted_harm,
    "power_mean": lambda pairs: power_mean(0.5, pairs),
}

_LIST_FAULTS = {
    "none": (None, MeasureError, "iterable"),
    "number": (5, MeasureError, "iterable"),
    "bare-entry": ([1.0], MeasureError, "iterable"),
    "short-entry": ([(1.0,)], MeasureError, "each entry"),
    "long-entry": ([(1.0, np.eye(2), np.eye(2))], MeasureError, "each entry"),
    "empty": ([], EmptyInput, "at least one"),
    "mixed-dimensions": ([(0.5, np.eye(2)), (0.5, np.eye(3))], ShapeError, r"\(2, 2\), \(3, 3\)"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fault", list(_LIST_FAULTS))
@pytest.mark.parametrize("reader", list(_LIST_READERS))
def test_weighted_matrix_list_faults_raise_one_typed_error(reader, fault):
    # every entry point reads its list through core._check_weights, so each fault of a
    # weighted matrix list raises the same SpdMeansError subclass, with no warning
    entries, error, match = _LIST_FAULTS[fault]
    with pytest.raises(error, match=match):
        _LIST_READERS[reader](entries)


@pytest.mark.parametrize("bad, error", [
    (np.diag([1.0, -0.5]), NotPositiveDefinite),         # indefinite
    (np.array([[1.0, 2.0], [0.0, 1.0]]), NotPositiveDefinite),  # symmetric part singular
    (np.array([[1.0, math.nan], [math.nan, 1.0]]), DomainError),
    (np.ones((2, 3)), ShapeError),
    ([[1.0, 0.0], [0.0]], ShapeError),                    # ragged nested list
])
def test_power_mean_validates_its_atoms(bad, error):
    with pytest.raises(error):
        power_mean(0.5, [(0.5, bad), (0.5, 2.0 * np.eye(2))])


def test_weighted_means_take_nested_lists():
    pairs = [(0.5, [[1.0, 0.0], [0.0, 1.0]]), (0.5, 2.0 * np.eye(2))]
    assert np.array_equal(weighted_arith(pairs), 1.5 * np.eye(2))
    assert np.allclose(weighted_harm(pairs), np.eye(2) / 0.75)
    assert np.array_equal(power_mean(0.5, pairs).mean,
                          power_mean(0.5, [(0.5, np.eye(2)), (0.5, 2.0 * np.eye(2))]).mean)
    with pytest.raises(ShapeError):
        weighted_arith([(0.5, [[1.0, 0.0], [0.0]]), (0.5, np.eye(2))])


def test_product_measure():
    rng = np.random.default_rng(2)
    a, b = rand_spd(rng, 3), rand_spd(rng, 3)
    nu = SMeasure.lebesgue(32)
    single = product_measure(nu, [(1.0, a)])
    assert len(single) == 1 and single.dim == 3
    two = product_measure(nu, [(0.3, a), (0.7, b)])
    assert [w for w, _, _ in two.atoms] == [0.3, 0.7]
    assert all(n is nu for _, _, n in two.atoms)
    # matrices are stored once, as a read-only stack that the atoms view
    assert two.matrices.shape == (2, 3, 3) and not two.matrices.flags.writeable
    assert np.array_equal(two.weights, [0.3, 0.7])
    assert all(np.shares_memory(m, two.matrices) for _, m, _ in two.atoms)


def test_congruence_measure():
    rng = np.random.default_rng(6)
    mu = product_measure(SMeasure.dirac(0.5),
                         [(0.5, rand_spd(rng, 3)), (0.5, rand_spd(rng, 3))])
    same = congruence_measure(np.eye(3), mu)
    for (_, m1, _), (_, m2, _) in zip(mu.atoms, same.atoms):
        assert np.allclose(m1, m2)
    scaled = congruence_measure(2.0 * np.eye(3), mu)
    for (_, m1, _), (_, m2, _) in zip(mu.atoms, scaled.atoms):
        assert np.allclose(m2, 4.0 * m1)
    c = rng.standard_normal((3, 3)) + 2.0 * np.eye(3)
    back = congruence_measure(np.linalg.inv(c), congruence_measure(c, mu))
    for (_, m1, _), (_, m2, _) in zip(mu.atoms, back.atoms):
        assert np.linalg.norm(m1 - m2) <= 1e-10 * (1 + np.linalg.norm(m1))


def test_congruence_measure_composes():
    rng = np.random.default_rng(7)
    mu = product_measure(SMeasure.lebesgue(8), [(1.0, rand_spd(rng, 3))])
    x = rng.standard_normal((3, 3)) + 2.0 * np.eye(3)
    y = rng.standard_normal((3, 3)) + 2.0 * np.eye(3)
    lhs = congruence_measure(x @ y, mu)
    rhs = congruence_measure(x, congruence_measure(y, mu))
    for (_, m1, _), (_, m2, _) in zip(lhs.atoms, rhs.atoms):
        assert np.linalg.norm(m1 - m2) <= 1e-10 * (1 + np.linalg.norm(m1))


def test_congruence_measure_singular_raises():
    from spdmeans import SingularTransform

    rng = np.random.default_rng(10)
    mu = product_measure(SMeasure.dirac(0.5), [(1.0, rand_spd(rng, 3))])
    with pytest.raises(SingularTransform):
        congruence_measure(np.zeros((3, 3)), mu)


def test_measure_leq():
    rng = np.random.default_rng(8)
    nu = SMeasure.lebesgue(16)
    a, b = rand_spd(rng, 3), rand_spd(rng, 3)
    mu = product_measure(nu, [(0.5, a), (0.5, b)])
    assert measure_leq(mu, mu)
    doubled = product_measure(nu, [(0.5, 2 * a), (0.5, 2 * b)])
    assert measure_leq(mu, doubled)
    assert not measure_leq(doubled, mu)
    with pytest.raises(Incomparable):
        measure_leq(mu, product_measure(nu, [(1.0, a)]))
    with pytest.raises(Incomparable):
        measure_leq(mu, product_measure(SMeasure.dirac(0.5), [(0.5, a), (0.5, b)]))
    with pytest.raises(Incomparable):
        measure_leq(mu, product_measure(nu, [(0.4, a), (0.6, b)]))


@pytest.mark.parametrize("parse, obj", [
    (pmeasure_from_json, {"atoms": [{}]}),
    (pmeasure_from_json, {"atoms": 3}),
    (pmeasure_from_json, {"atoms": [{"weight": 1.0, "matrix": {"dim": 1, "data": [[1.0]]},
                                     "nu": {"type": "lebesgue", "nodes": "many"}}]}),
    (smeasure_from_json, {"type": "dirac"}),
    (smeasure_from_json, {"type": "atoms", "points": [{"s": 0.5}]}),
    (matrix_from_json, {"dim": 2, "data": "x"}),
    (matrix_from_json, {"dim": 2, "data": [[1.0, 0.0], [0.0]]}),
])
def test_json_parsers_raise_measure_error_on_malformed_input(parse, obj):
    with pytest.raises(MeasureError):
        parse(obj)


def test_pmeasure_json_roundtrip():
    rng = np.random.default_rng(9)
    mu = PMeasure(
        [
            (0.25, rand_spd(rng, 3), SMeasure.dirac(0.5)),
            (0.25, rand_spd(rng, 3), SMeasure.lebesgue(32)),
            (0.5, rand_spd(rng, 3), SMeasure.power(0.4, 48)),
        ]
    )
    again = pmeasure_from_json(measure_json(mu))  # the schema as the tests' writer emits it
    assert len(again) == len(mu) and again.dim == mu.dim
    for (w1, m1, n1), (w2, m2, n2) in zip(mu.atoms, again.atoms):
        assert w1 == w2
        assert np.array_equal(m1, m2)
        assert n1.same_structure(n2)


@pytest.mark.parametrize("bad, error, match", [
    (np.diag([1.0, -0.5]), NotPositiveDefinite, "matrix 1 is not positive definite"),
    (np.array([[1.0, 2.0], [0.0, 1.0]]), NotPositiveDefinite, "matrix 1 is not positive definite"),
    (np.array([[1.0, math.nan], [math.nan, 1.0]]), DomainError, "finite"),
])
def test_pmeasure_checks_its_atoms_in_one_stack(bad, error, match):
    # one stacked gate names the failing atom; the JSON loader leaves the check to it
    nu = SMeasure.lebesgue()
    with pytest.raises(error, match=match):
        PMeasure([(0.5, 2.0 * np.eye(2), nu), (0.5, bad, nu)])
    obj = {"atoms": [{"weight": 0.5, "nu": {"type": "lebesgue"}, "matrix": matrix_to_json(m)}
                     for m in (2.0 * np.eye(2), bad)]}
    with pytest.raises(error, match=match):
        pmeasure_from_json(obj)


def test_measure_json_is_gated_as_one_stack(monkeypatch):
    # the atoms' matrices become one (k, n, n) array, gated by PMeasure's one stacked gate,
    # core._spd; no atom is converted, checked or symmetrized on its own
    calls = {"_spd": 0, "sym_matrix": 0}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(module, name, wrapper)

    obj = measure_json(random_measure(np.random.default_rng(23), 3, n_atoms=20))
    counted(measures, "_spd")
    counted(core, "sym_matrix")
    mu = pmeasure_from_json(obj)
    assert calls == {"_spd": 1, "sym_matrix": 0}
    assert len(mu) == 20 and not mu.matrices.flags.writeable


def _json_atom(matrix, weight=0.5):
    return {"weight": weight, "nu": {"type": "lebesgue"}, "matrix": matrix}


_I2 = {"dim": 2, "data": [[1.0, 0.0], [0.0, 1.0]]}


@pytest.mark.parametrize("bad, error", [
    ({"data": [[1.0, 0.0], [0.0, 1.0]]}, MeasureError),                  # no "dim"
    ({"dim": 2}, MeasureError),                                           # no "data"
    ([[1.0, 0.0], [0.0, 1.0]], MeasureError),                             # not an object
    ({"dim": 2, "data": [[1.0, 0.0], [0.0]]}, MeasureError),             # ragged data
    ({"dim": 2, "data": "x"}, MeasureError),                              # not numeric
    ({"dim": 2, "data": [[1.0, "a"], [0.0, 1.0]]}, MeasureError),        # a text entry
    ({"dim": 3, "data": [[1.0, 0.0], [0.0, 1.0]]}, ShapeError),          # dim mismatch
    ({"dim": 2, "data": [1.0, 0.0]}, ShapeError),                         # flat data
    ({"dim": 2, "data": 1.0}, ShapeError),                                # scalar data
    ({"dim": 2, "data": [[1.0, math.nan], [math.nan, 1.0]]}, DomainError),
    ({"dim": 2, "data": [[1.0, math.inf], [0.0, 1.0]]}, DomainError),
], ids=["no-dim", "no-data", "not-an-object", "ragged", "text-data", "text-entry",
        "dim-mismatch", "flat-data", "scalar-data", "nan", "inf"])
def test_matrix_json_errors_keep_their_types(bad, error):
    # the schema check and the stacked parse raise, for one bad atom among good ones,
    # the type each malformed matrix raised when every atom was parsed on its own
    with pytest.raises(error):
        matrix_from_json(bad)
    with pytest.raises(error):
        pmeasure_from_json({"atoms": [_json_atom(_I2), _json_atom(bad)]})


@pytest.mark.parametrize("bad, error", [
    ({"dim": 3, "data": np.eye(3).tolist()}, ShapeError),
    ({"dim": 2, "data": [[1.0, 0.0], [0.0, -1.0]]}, NotPositiveDefinite),
], ids=["mixed-dimensions", "not-pd"])
def test_measure_json_errors_of_well_formed_atoms_keep_their_types(bad, error):
    with pytest.raises(error):
        pmeasure_from_json({"atoms": [_json_atom(_I2), _json_atom(bad)]})
