"""Tests of the benchmark's independent checks.

    python3 -m pytest bench/test_checks.py -q

Hand-worked 2x2 cases pin each check to a value known in closed form; the
perturbation tests run one op of every kind in the three workloads and
require the check to pass on the program's output and to fail once the
output is scaled by (1 + 1e-6).
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks as ck  # noqa: E402
import workloads as wl  # noqa: E402

LEB = ("lebesgue", 64)
A = np.diag([1.0, 4.0])
B = np.diag([4.0, 1.0])


def atoms(*specs, a=A, b=B):
    return [(0.5, a, specs[0]), (0.5, b, specs[-1])]


def rejects(check, *args):
    with pytest.raises(ck.CheckFailed):
        check(*args)


def test_thompson_from_generalized_eigenvalues():
    assert ck.thompson(np.diag([1.0, 4.0]), np.diag([2.0, 1.0])) == pytest.approx(math.log(4.0))


def test_two_point_geometric_mean():
    x = np.diag([2.0, 2.0])  # diag(1, 4) # diag(4, 1)
    ck.check_two_point(x, atoms(LEB))
    rejects(ck.check_two_point, x * (1 + 1e-6), atoms(LEB))


def test_dirac_endpoints_give_arithmetic_and_harmonic_means():
    a, b = np.diag([1.0, 3.0]), np.diag([3.0, 1.0])
    ck.check_karcher(np.diag([2.0, 2.0]), atoms(("dirac", 1.0), a=a, b=b))
    ck.check_karcher(np.diag([1.5, 1.5]), atoms(("dirac", 0.0), a=a, b=b))
    rejects(ck.check_karcher, np.diag([1.5, 1.5]) * (1 + 1e-6), atoms(("dirac", 0.0), a=a, b=b))


def test_power_mean_of_commuting_atoms():
    x = np.diag([2.25, 2.25])  # ((1 + 2) / 2)^2
    ck.check_power(x, atoms(LEB), 0.5)
    rejects(ck.check_power, x * (1 + 1e-6), atoms(LEB), 0.5)


def test_induced_mean_at_dirac_one_is_arithmetic():
    ck.check_induced(np.diag([2.5, 2.5]), atoms(("dirac", 1.0)), 0.5)
    rejects(ck.check_induced, np.diag([2.5, 2.5]) * (1 + 1e-6), atoms(("dirac", 1.0)), 0.5)


def test_commuting_mean_is_scalar_solution():
    got = ck.commuting_mean(atoms(LEB))
    assert np.allclose(got, np.diag([2.0, 2.0]), rtol=1e-12)


def test_sandwich_rejects_point_above_arithmetic_mean():
    rejects(ck.check_sandwich, np.diag([2.6, 2.6]), atoms(LEB))


def test_divergence_endpoint():
    value = ck.objective(np.eye(2), [(1.0, np.diag([2.0, 1.0]), ("dirac", 1.0))])
    assert value == pytest.approx(1.0 - math.log(2.0), rel=1e-14)


def test_quadrature_masses():
    for spec in (LEB, ("power", 0.3, 64), ("atoms", ((0.2, 0.25), (0.9, 0.75)))):
        assert ck.quadrature(spec)[1].sum() == pytest.approx(1.0, rel=1e-12)


def _perturbed(op, ret):
    """The op's output with its mean (or value) scaled by 1 + 1e-6."""
    if not isinstance(ret, str):
        ret.mean = ret.mean * (1 + 1e-6)
        return ret
    obj = json.loads(Path(ret).read_text())
    for key in ("d_inf", "objective", "residual_norm"):
        if key in obj:
            obj[key] *= 1 + 1e-6
    for key in ("mean", "residual"):
        if key in obj:
            obj[key]["data"] = (np.array(obj[key]["data"]) * (1 + 1e-6)).tolist()
    Path(ret).write_text(json.dumps(obj))
    return ret


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_checks_pass_program_output_and_reject_perturbed(workload, tmp_path):
    import spdmeans
    import spdmeans.cli  # noqa: F401

    seen = set()
    for op in wl.build(workload, spdmeans, ck, 0, str(tmp_path)):
        if op.kind in seen:
            continue
        seen.add(op.kind)
        ret = op.run()
        op.check(ret)
        with pytest.raises(ck.CheckFailed):
            op.check(_perturbed(op, ret))
