import dataclasses
import inspect
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import dirac_lebesgue_pair, measure_json, rand_spd, subprocess_env
from spdmeans import (
    SMeasure,
    SolverConfig,
    SpdMeansError,
    cli,
    distance,
    geometric_mean,
    lambda_mean,
    matrix_from_json,
    matrix_to_json,
    minimize_divergence,
    pmeasure_from_json,
    product_measure,
    verify,
)
from spdmeans import core


def run_cli(*args, cwd=None):
    proc = subprocess.run(
        [sys.executable, "-m", "spdmeans", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=subprocess_env(),
    )
    return proc


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def setup_files(tmp_path):
    rng = np.random.default_rng(101)
    a, b = rand_spd(rng, 3), rand_spd(rng, 3)
    mu = product_measure(SMeasure.lebesgue(64), [(0.5, a), (0.5, b)])
    files = {
        "a": write_json(tmp_path / "a.json", matrix_to_json(a)),
        "b": write_json(tmp_path / "b.json", matrix_to_json(b)),
        "measure": write_json(tmp_path / "mu.json", measure_json(mu)),
        "sigma": write_json(
            tmp_path / "sigma.json",
            {"atoms": [
                {"weight": 0.5, "matrix": matrix_to_json(a)},
                {"weight": 0.5, "matrix": matrix_to_json(b)},
            ]},
        ),
    }
    return files, a, b, tmp_path


def test_mean_single_atom(tmp_path):
    rng = np.random.default_rng(5)
    a = rand_spd(rng, 3)
    mu = product_measure(SMeasure.dirac(0.5), [(1.0, a)])
    path = write_json(tmp_path / "mu.json", measure_json(mu))
    proc = run_cli("mean", path, "--t", "0.5")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    mean = matrix_from_json(report["mean"])
    assert distance(mean, a) <= 1e-10


def test_mean_t1_is_arithmetic(setup_files):
    files, a, b, _ = setup_files
    proc = run_cli("mean", files["measure"], "--t", "1")
    assert proc.returncode == 0
    mean = matrix_from_json(json.loads(proc.stdout)["mean"])
    assert np.linalg.norm(mean - (a + b) / 2) <= 1e-10 * (1 + np.linalg.norm(a))


def test_missing_file_exits_1():
    proc = run_cli("mean", "/nonexistent/mu.json", "--t", "0.5")
    assert proc.returncode == 1
    assert "error" in proc.stderr


def test_malformed_json_exits_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    proc = run_cli("lambda", str(bad))
    assert proc.returncode == 1


@pytest.mark.parametrize("command, obj", [
    ("lambda", {"atoms": [{}]}),
    ("metric", {"dim": 2, "data": "x"}),
    ("power", {"atoms": [{"weight": 1.0}]}),
    ("power", {"atoms": [{"weight": 0.5, "matrix": matrix_to_json(np.eye(d))} for d in (2, 3)]}),
    ("power", {"atoms": []}),
])
def test_malformed_input_error_names_the_file(setup_files, capsys, command, obj):
    files, _, _, tmp_path = setup_files
    bad = write_json(tmp_path / "malformed.json", obj)
    rest = {"lambda": [], "metric": [files["b"]], "power": ["--t", "0.5"]}[command]
    assert cli.main([command, bad, *rest]) == 1
    assert bad in capsys.readouterr().err


@pytest.mark.parametrize("command, key, edit, why", [
    ("lambda", "measure", lambda o: o["atoms"][0].update(weight=math.nan), "weights"),
    ("lambda", "measure",
     lambda o: o["atoms"][0].update(nu={"type": "atoms", "points": [{"s": math.nan, "w": 1.0}]}),
     "locations"),
    ("lambda", "measure", lambda o: o["atoms"][0].update(weight="half"), "weights"),
    ("power", "sigma", lambda o: o["atoms"][0].update(weight=math.nan), "weights"),
    ("power", "sigma", lambda o: o["atoms"][0].update(weight="half"), "'half'"),
    ("power", "sigma", lambda o: o["atoms"][0].update(matrix=matrix_to_json(np.eye(2))),
     "dimensions"),
    # a number is a JSON number: a numeric string is rejected, not parsed
    ("lambda", "measure", lambda o: o["atoms"][0].update(weight="0.5"), "'0.5'"),
    ("lambda", "measure",
     lambda o: o["atoms"][0].update(nu={"type": "atoms", "points": [{"s": "0.3", "w": 1.0}]}),
     "'0.3'"),
    ("power", "sigma", lambda o: o["atoms"][0].update(weight="0.5"), "'0.5'"),
], ids=["nan-weight", "nan-location", "text-weight", "sigma-nan-weight", "sigma-text-weight",
        "sigma-mixed-dimensions", "numeric-text-weight", "numeric-text-location",
        "sigma-numeric-text-weight"])
def test_bad_input_values_exit_1(setup_files, capsys, command, key, edit, why):
    # json accepts NaN; these are input errors, named as such, not solver failures
    files, _, _, tmp_path = setup_files
    with open(files[key], encoding="utf-8") as fh:
        obj = json.load(fh)
    edit(obj)
    bad = write_json(tmp_path / "bad.json", obj)
    rest = ["--t", "0.5"] if command == "power" else []
    assert cli.main([command, bad, *rest]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and why in err


def test_matrix_list_json_is_read_as_one_stack(setup_files, monkeypatch):
    # the power input's matrices become one array, converted, checked and symmetrized only
    # by power_mean's one stacked gate, core._spd: no per-matrix matrix_from_json or
    # sym_matrix runs
    files = setup_files[0]
    calls = {"_spd": 0, "sym_matrix": 0}

    def counted(name):
        real = getattr(core, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(core, name, wrapper)

    counted("_spd")
    counted("sym_matrix")
    assert cli.main(["power", files["sigma"], "--t", "0.5", "--output", os.devnull]) == 0
    assert calls == {"_spd": 1, "sym_matrix": 0}


def test_nonconvergence_exits_2(setup_files):
    files, _, _, _ = setup_files
    proc = run_cli("mean", files["measure"], "--t", "0.1", "--max-iters", "2")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "iterations=2" in proc.stderr


def test_metric_command(setup_files):
    files, a, b, _ = setup_files
    proc = run_cli("metric", files["a"], files["a"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["d_inf"] == 0.0
    proc = run_cli("metric", files["a"], files["b"])
    assert abs(json.loads(proc.stdout)["d_inf"] - distance(a, b)) <= 1e-12


def test_subcommand_rejects_flags_it_does_not_read(setup_files):
    files, _, _, _ = setup_files
    proc = run_cli("metric", files["a"], files["b"], "--fp-tol", "1e-3")
    assert proc.returncode == 1


def test_solver_config_holds_exactly_the_settings_the_cli_offers():
    # a setting no caller can reach is not kept; "t" is a mean's parameter and
    # verify's options are not solver settings
    flags = {opt.replace("-", "_") for name, _, _, opts in cli._COMMANDS if name != "verify"
             for opt in opts} - {"t"}
    assert {f.name for f in dataclasses.fields(SolverConfig)} == flags
    parser = cli._build_parser()
    for name, _, positionals, opts in cli._COMMANDS:
        argv = [name, *positionals, *(arg for opt in opts for arg in (f"--{opt}", "7"))]
        cfg = cli._solver_config(parser.parse_args(argv))
        assert all(getattr(cfg, opt.replace("-", "_")) == 7
                   for opt in opts if opt.replace("-", "_") in flags)


def test_matrix_from_json_has_no_spd_flag_and_each_consumer_gates(setup_files):
    # the loader only parses and symmetrizes; the function a matrix is passed to checks it
    assert list(inspect.signature(matrix_from_json).parameters) == ["obj"]
    files, _, _, tmp_path = setup_files
    bad = write_json(tmp_path / "bad.json", {"dim": 3, "data": np.diag([1.0, -1.0, 2.0]).tolist()})
    assert matrix_from_json(json.loads(open(bad).read()))[1, 1] == -1.0
    for argv in (["metric", bad, files["a"]], ["metric", files["a"], bad],
                 ["residual", files["measure"], bad], ["divergence", files["measure"], bad]):
        proc = run_cli(*argv)
        assert proc.returncode == 1, argv
        assert "not positive definite" in proc.stderr


def test_parser_reused_after_failed_parse(setup_files, capsys):
    # the parser is built once per process; a rejected flag must leave no state
    files, a, b, _ = setup_files
    assert cli.main(["metric", files["a"], files["b"], "--fp-tol", "1e-3"]) == 1
    capsys.readouterr()
    assert cli.main(["metric", files["a"], files["b"]]) == 0
    assert json.loads(capsys.readouterr().out)["d_inf"] == pytest.approx(distance(a, b), abs=1e-12)


def test_lambda_and_residual_roundtrip(setup_files):
    files, a, b, tmp = setup_files
    proc = run_cli("lambda", files["measure"])
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    mean = matrix_from_json(report["mean"])
    assert distance(mean, geometric_mean(a, b, 0.5)) <= 1e-6
    assert report["residual_norm"] <= 1e-8
    assert len(report["t_trace"]) >= 2
    xpath = write_json(tmp / "x.json", report["mean"])
    proc = run_cli("residual", files["measure"], xpath)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["residual_norm"] <= 1e-8


def test_lambda_tol_flag_honored(setup_files):
    files, _, _, _ = setup_files
    tight = json.loads(run_cli("lambda", files["measure"]).stdout)
    loose = json.loads(
        run_cli("lambda", files["measure"], "--lambda-tol", "1e-6").stdout
    )
    assert len(loose["t_trace"]) < len(tight["t_trace"])


def test_power_matches_lambda_route(setup_files):
    files, a, b, tmp = setup_files
    proc = run_cli("power", files["sigma"], "--t", "0.5")
    assert proc.returncode == 0
    p = matrix_from_json(json.loads(proc.stdout)["mean"])
    mu = product_measure(SMeasure.power(0.5), [(0.5, a), (0.5, b)])
    path = write_json(tmp / "mu_pow.json", measure_json(mu))
    proc = run_cli("lambda", path)
    lam = matrix_from_json(json.loads(proc.stdout)["mean"])
    assert distance(p, lam) <= 1e-6


def test_divergence_and_minimize(setup_files):
    files, a, b, _ = setup_files
    proc = run_cli("divergence", files["measure"], files["a"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["objective"] >= 0.0
    proc = run_cli("minimize", files["measure"])
    assert proc.returncode == 0
    mean = matrix_from_json(json.loads(proc.stdout)["mean"])
    assert distance(mean, geometric_mean(a, b, 0.5)) <= 1e-6


@pytest.mark.parametrize("seed", [13, 16, 25])
def test_minimize_wide_spread_measure(tmp_path, seed):
    mu = dirac_lebesgue_pair(seed)
    proc = run_cli("minimize", write_json(tmp_path / "mu.json", measure_json(mu)))
    assert proc.returncode == 0, proc.stderr
    mean = matrix_from_json(json.loads(proc.stdout)["mean"])
    assert distance(mean, lambda_mean(mu).mean) <= 1e-6


_MAX_ITERS = ("--max-iters", ("0", "-3"), "max_iters must be positive")
_BAD_TOL = ("nan", "inf"), "tolerances must be positive"


@pytest.mark.parametrize("command, flag, bads, message", [
    (["minimize"], *_MAX_ITERS),
    (["lambda"], *_MAX_ITERS),
    (["mean", "--t", "0.5"], *_MAX_ITERS),
    (["lambda"], "--fp-tol", *_BAD_TOL),
    (["mean", "--t", "0.5"], "--fp-tol", *_BAD_TOL),
    (["lambda"], "--lambda-tol", *_BAD_TOL),
    (["minimize"], "--grad-tol", *_BAD_TOL),
], ids=["minimize", "lambda", "mean", "lambda-fp-tol-nan", "mean-fp-tol-nan", "lambda-tol-nan",
        "grad-tol-nan"])
def test_nonpositive_max_iters_exits_1(setup_files, capsys, command, flag, bads, message):
    # a bad setting is an input error (1), never a solver failure (2); NaN included
    files, _, _, _ = setup_files
    for bad in bads:
        assert cli.main([*command, files["measure"], flag, bad]) == 1
        assert message in capsys.readouterr().err


def test_stdout_byte_identical(setup_files):
    files, _, _, _ = setup_files
    out1 = run_cli("lambda", files["measure"]).stdout
    out2 = run_cli("lambda", files["measure"]).stdout
    assert out1 == out2


def test_output_flag(setup_files, tmp_path):
    files, a, b, _ = setup_files
    target = tmp_path / "report.json"
    proc = run_cli("metric", files["a"], files["b"], "--output", str(target))
    assert proc.returncode == 0 and proc.stdout == ""
    assert "d_inf" in json.loads(target.read_text())


def test_matrix_json_parse_serialize_roundtrip(setup_files):
    files, a, _, _ = setup_files
    obj = json.loads(open(files["a"]).read())
    parsed = matrix_from_json(obj)
    assert np.array_equal(parsed, a)
    assert matrix_to_json(parsed) == obj


def test_verify_unknown_suite_exits_1():
    proc = run_cli("verify", "--suite", "nope", "--trials", "1")
    assert proc.returncode == 1


@pytest.mark.parametrize("flag, value", [("--trials", "0"), ("--trials", "-3"), ("--dim", "0"),
                                         ("--dim", "-1"), ("--seed", "-1")])
def test_verify_rejects_a_run_that_checks_nothing(capsys, flag, value):
    # a run over no trials or no dimensions would print PASS (0/0); numpy takes no
    # negative seed, and every bad value is an input error line, not a traceback
    assert cli.main(["verify", "--suite", "thompson", "--trials", "2", "--dim", "2",
                     flag, value]) == 1
    assert capsys.readouterr().err.startswith("error: verify needs trials >= 1, dim >= 1")


@pytest.mark.parametrize("bad", [{"trials": 1.5}, {"dim": 2.5}, {"seed": 1.5}, {"trials": True}],
                         ids=["trials=1.5", "dim=2.5", "seed=1.5", "trials=True"])
def test_run_suite_rejects_a_non_whole_count_or_seed(bad):
    # a typed input error, not numpy's TypeError, and True is not one trial
    args = {"suite": "thompson", "seed": 0, "dim": 2, "trials": 2, **bad}
    with pytest.raises(SpdMeansError, match="all whole numbers"):
        verify.run_suite(**args, out=lambda line: None)


def test_verify_small_run_passes():
    proc = run_cli("verify", "--suite", "thompson", "--trials", "5", "--dim", "3", "--seed", "7")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "suite thompson: PASS" in proc.stdout


@pytest.mark.parametrize("argv", [["lambda", "mu.json"], ["mean", "mu.json", "--t", "0.5"],
                                  ["minimize", "mu.json"]], ids=["lambda", "mean", "minimize"])
def test_flagless_solver_config_is_the_dataclass_default(argv):
    assert cli._solver_config(cli._build_parser().parse_args(argv)) == SolverConfig()


def test_minimize_output_is_the_library_report(setup_files, capsys):
    files, _, _, _ = setup_files
    assert cli.main(["minimize", files["measure"]]) == 0
    with open(files["measure"], encoding="utf-8") as fh:
        mu = pmeasure_from_json(json.load(fh))
    assert capsys.readouterr().out == json.dumps(minimize_divergence(mu).to_json()) + "\n"


@pytest.mark.parametrize("command", ["mean", "lambda", "residual", "divergence", "minimize",
                                     "verify"])
def test_nodes_flag_is_rejected(setup_files, command):
    # the node count belongs to the measure: its factory argument or its JSON "nodes" key
    files, _, _, _ = setup_files
    args = {"mean": [files["measure"], "--t", "0.5"], "lambda": [files["measure"]],
            "residual": [files["measure"], files["a"]],
            "divergence": [files["measure"], files["a"]], "minimize": [files["measure"]],
            "verify": ["--suite", "thompson", "--trials", "1"]}[command]
    assert cli.main([command, *args]) == 0
    assert cli.main([command, *args, "--nodes", "32"]) == 1


def test_measure_json_nodes_key_sets_the_rule(setup_files, capsys):
    files, a, b, tmp_path = setup_files
    mu = product_measure(SMeasure.lebesgue(32), [(0.5, a), (0.5, b)])
    obj = measure_json(mu)
    assert all(atom["nu"] == {"type": "lebesgue", "nodes": 32} for atom in obj["atoms"])
    assert cli.main(["lambda", write_json(tmp_path / "mu32.json", obj)]) == 0
    assert json.loads(capsys.readouterr().out)["mean"] == matrix_to_json(lambda_mean(mu).mean)
