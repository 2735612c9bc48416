"""Tier-1 runner of ``spdmeans verify``'s check table, and its pinned output.

``test_check`` runs each row of :data:`spdmeans.verify.CHECKS` once per cell
of a fixed seeds x dims grid, on ``numpy.random.default_rng(seed)``: every draw
must apply (a non-empty result) and every assertion in it pass.
``pytest tests/test_acceptance.py -v`` lists one line per check.
"""

import pathlib
import subprocess
import sys

import numpy as np
import pytest

from conftest import assert_check, subprocess_env
from spdmeans.verify import CHECKS

PINNED = pathlib.Path(__file__).parent / "verify_all_seed42_dim4_trials50.txt"

# seeds x dims per check, fixed before any run; CHANGES.md gives the dims and draw
# counts that each grid reaches
_THOMPSON = (range(63), (2, 3, 4, 5))
_DIVERGENCE = (range(17), (2, 3, 4))
GRID = {
    "thompson.identity": _THOMPSON,
    "thompson.symmetry": _THOMPSON,
    "thompson.triangle": _THOMPSON,
    "thompson.scaling": _THOMPSON,
    "thompson.inversion": _THOMPSON,
    "thompson.congruence": _THOMPSON,
    "thompson.order_bounds": _THOMPSON,
    "thompson.convex_combination": _THOMPSON,
    "thompson.weighted_bound": _THOMPSON,
    "thompson.contraction_formulas": (range(10100), (1,)),
    "thompson.contraction_empirical": (range(257), (2, 3, 4)),
    "means.fixed_point": (range(2), (2, 3, 4, 5)),
    "means.sandwich": (range(5), (2, 3, 4, 5, 6, 8)),
    "means.karcher_residual": (range(4), (2, 3, 4, 5, 6, 8)),
    "means.monotone_induced": (range(19), (2, 3, 4)),
    "means.monotone_lambda": (range(18), (2, 3, 4)),
    "means.congruence": (range(6), (2, 3, 4)),
    "means.t_monotone": (range(2), (2, 3, 4, 5, 6)),
    "means.two_point_oracle": (range(12), (2, 3, 4, 5, 6)),
    "means.scalar_karcher": (range(3), (1, 2, 3, 4)),
    "means.power_route": (range(3), (2, 3, 4, 5)),
    "divergence.positivity": _DIVERGENCE,
    "divergence.identity": _DIVERGENCE,
    "divergence.gradient_identity": _DIVERGENCE,
    "divergence.gradient_fd": (range(67), (2, 3, 4)),
    "divergence.argmin_equivalence": (range(9), (2, 3, 4, 5)),
    "divergence.geodesic_convexity": (range(20), (3,)),
    "divergence.second_difference": (range(20), (2, 3, 4)),
}


def _passes(check, seed, dim):
    results = check(np.random.default_rng(seed), dim)
    return bool(results) and all(results)


@pytest.mark.parametrize("name, check", [(name, check) for name, _, check in CHECKS],
                         ids=[name for name, _, _ in CHECKS])
def test_check(name, check):
    seeds, dims = GRID[name]
    failed = [(seed, dim) for dim in dims for seed in seeds if not _passes(check, seed, dim)]
    assert not failed, f"{name} failed or did not apply at (seed, dim) {failed[:10]}"


# criteria 01-11 keep their own seed and draws, through the row that states each
def test_criterion_01_two_point_karcher_oracle():
    assert_check("means.two_point_oracle", 1, 50, (2, 3, 4, 5, 6))


def test_criterion_02_scalar_karcher_oracle():
    assert_check("means.scalar_karcher", 2, 10, (1, 2, 3, 4))


def test_criterion_04_argmin_equivalence():
    assert_check("divergence.argmin_equivalence", 4, 30, (2, 3, 4, 5))


def test_criterion_05_gradient_check():
    assert_check("divergence.gradient_fd", 5, 100, (2, 3, 4))


def test_criterion_06_monotonicity():
    assert_check("means.monotone_induced", 6, 50, (2, 3, 4))
    assert_check("means.monotone_lambda", 6, 50, (2, 3, 4))


def test_criterion_08_contraction_formulas():
    assert_check("thompson.contraction_empirical", 8, 729, (3,))


def test_criterion_09_power_mean_route():
    assert_check("means.power_route", 9, 3, (2, 3, 4, 5))


def test_criterion_11_t_net_behavior():
    assert_check("means.t_monotone", 11, 8, (2, 3, 4, 5, 6))


def test_pinned_output_names_the_rows_in_table_order():
    # a row added, renamed or dropped without re-pinning fails here by name
    lines = PINNED.read_text().splitlines()
    assert [line.split(":")[0] for line in lines[:-1]] == [name for name, _, _ in CHECKS]


def test_criterion_13_verify_determinism():
    # two runs are byte-identical and match the checked-in output of this command
    cmd = [
        sys.executable, "-m", "spdmeans", "verify",
        "--seed", "42", "--dim", "4", "--trials", "50", "--suite", "all",
    ]
    first = subprocess.run(cmd, capture_output=True, text=True, env=subprocess_env())
    second = subprocess.run(cmd, capture_output=True, text=True, env=subprocess_env())
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout == PINNED.read_text()
