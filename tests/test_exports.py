import ast
import json
import pathlib
import subprocess
import sys
import types

import numpy as np

import spdmeans
from conftest import measure_json, rand_spd, subprocess_env
from spdmeans import PMeasure, SMeasure, SolverConfig, SolverReport, matrix_to_json
from spdmeans import cli, core, divergence, measures, monotone, solver, thompson, verify


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from spdmeans import *", namespace)
    assert len(spdmeans.__all__) == len(set(spdmeans.__all__))
    for name in spdmeans.__all__:
        assert namespace[name] is getattr(spdmeans, name)


def test_removed_names_stay_removed():
    # SolverConfig carries grad_tol, a measure's own integrals run on its flat
    # rule, SMeasure.transpose reflects a measure, nothing inverts mean_kernel,
    # the one spectral route is core's whitened eigh and spectral_sum, and only
    # a test differentiates a represented function at 1; no command writes measure
    # JSON, and sym_matrix and smeasure_from_json are module functions behind
    # spd_matrix and pmeasure_from_json; geodesic convexity is verify's
    # divergence.geodesic_convexity row; every integral against a measure is a
    # PMeasure method (kernels, power_kernels, divergence), whose kernels() holds the
    # one kernel formula, so a represented function, a Dirac measure's scalar kernel
    # included, is the Karcher residual at I of a one-atom measure, and no
    # two-variable Kubo-Ando mean is kept; no kind needs a user density or a
    # reflection, and the demos draw Thompson-ball points with verify.random_ball_point;
    # X's eigenvector frame, not a symmetric square root, whitens every point; every SPD
    # operand takes one gated eigh, core._spd, which also gives its factor; the Newton
    # engine's visited points are one record, solver._Visit, not positional tuples
    for name in ("RgdConfig", "integrate", "transpose_measure", "mean_kernel_inv",
                 "SpectralDecomposition", "spectral", "spd_power", "check_normalization",
                 "log_kernel", "log_kernel_inv", "harmonic_kernel", "mean_kernel",
                 "smeasure_to_json", "pmeasure_to_json", "apply_scalar_fn", "sym_matrix",
                 "smeasure_from_json", "geodesic_convexity_check", "eval_monotone",
                 "eval_mean", "log_spread"):
        assert name not in spdmeans.__all__
        assert not hasattr(spdmeans, name)
    assert not hasattr(spdmeans.divergence, "geodesic_convexity_check")
    for name in ("eval_monotone", "eval_mean", "_apply", "_kernel_terms"):
        assert not hasattr(monotone, name), name
    assert not hasattr(thompson, "log_spread")
    for name in ("custom", "transpose"):
        assert not hasattr(SMeasure, name)
    modules = (cli, core, divergence, measures, monotone, solver, thompson, verify)
    for name in ("log_kernel_grid", "x_over_affine", "_level_kernels", "_power_kernels",
                 "_objective", "_ball_point", "sqrt_pair", "_cholesky", "spd_stack", "_point",
                 "_visit", "_trial_point", "_gated_point", "_sym_point"):
        assert not any(hasattr(m, name) for m in modules), name


def _used_names(path):
    """Every name a file reads, as a bare name or an attribute."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def test_every_export_has_a_caller_outside_the_tests():
    # an export, a public module-level function of the library's modules, or a public
    # method of an exported class, is used by another module of the package, a demo or
    # the benchmark
    src = pathlib.Path(spdmeans.__file__).parent
    repo = src.parents[1]
    used = {path: _used_names(path)
            for path in [*src.glob("*.py"), *(repo / "demos").glob("*.py"),
                         *(repo / "bench").glob("*.py")]}
    public = {name: getattr(spdmeans, name) for name in spdmeans.__all__}
    for module in (core, monotone, measures, solver, divergence, thompson):
        public.update((name, f) for name, f in vars(module).items()
                      if not name.startswith("_") and isinstance(f, types.FunctionType)
                      and f.__module__ == module.__name__)
    for name, obj in sorted(public.items()):
        own = {src / f"{obj.__module__.split('.')[-1]}.py", src / "__init__.py"}
        callers = [path for path, names in used.items() if name in names and path not in own]
        assert callers, f"{name} is public but only its own module and the tests use it"
    for cls in (SMeasure, PMeasure, SolverConfig, SolverReport):
        own = src / f"{cls.__module__.split('.')[-1]}.py"
        for name, attr in vars(cls).items():
            if name.startswith("_") or not isinstance(
                    attr, (types.FunctionType, classmethod, staticmethod)):
                continue
            callers = [path for path, names in used.items() if name in names and path != own]
            assert callers, f"{cls.__name__}.{name} has no caller outside its module and the tests"


def test_only_the_measure_layer_reads_the_quadrature():
    # the solvers and the divergence call the measure's methods; no node array of a
    # measure, its node blocks or an earlier flat rule, is read outside monotone.py and
    # measures.py
    src = pathlib.Path(spdmeans.__file__).parent
    rule = {"nodes", "node_weights", "owner", "starts", "_nodes", "_node_weights", "_owner",
            "_starts", "_block_nodes", "_block_weights"}
    for path in src.glob("*.py"):
        if path.name not in ("monotone.py", "measures.py"):
            assert not rule & _used_names(path), path.name


def _int_literal(node):
    """True for a literal integer index, negative ones included."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) is int


def _positional_reads(source):
    """The nested literal-integer subscripts ``a[i][j]`` of a source text, as source segments."""
    return [ast.get_source_segment(source, node) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Subscript) and _int_literal(node.slice)
            and isinstance(node.value, ast.Subscript) and _int_literal(node.value.slice)]


def test_the_newton_engine_reads_no_record_by_position():
    # the engine's visited points are records read by field name: a subscript of a
    # subscript at literal integers (``visit[0][1][2]``, ``trace[-2][0]``) is a tuple read
    # by position; an array index ``lam[0, 0]`` or a call's result ``kernel(lam)[0]`` is not
    assert sorted(_positional_reads("visit[0][1][2]; point[1][2]; lam[0][0]; trace[-2][0]")) == [
        "lam[0][0]", "point[1][2]", "trace[-2][0]", "visit[0][1]", "visit[0][1][2]"]
    assert _positional_reads("lam[0, 0]; kernel(lam)[0]; lam[1:][0]; at[0]; h[:, -1:]") == []
    src = pathlib.Path(spdmeans.__file__).parent
    for name in ("solver.py", "divergence.py"):
        assert _positional_reads((src / name).read_text(encoding="utf-8")) == [], name


def test_only_core_calls_eigh():
    # every spectrum and every factor of the package comes from one eigh call, in
    # core._eigh: no module calls eigvalsh or cholesky
    src = pathlib.Path(spdmeans.__file__).parent
    calls = []
    for path in src.glob("*.py"):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    f = node.func
                    name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                    if name in ("eigh", "eigvalsh", "cholesky"):
                        calls.append((path.name, getattr(top, "name", None), name))
    assert calls == [("core.py", "_eigh", "eigh")]


_NO_SCIPY = """
import sys
sys.modules["scipy"] = None  # any import of scipy or a submodule now raises ImportError
import spdmeans, spdmeans.cli
a, b, measure, sigma = sys.argv[1:]
for argv in (["metric", a, b], ["lambda", measure], ["residual", measure, a],
             ["divergence", measure, a], ["minimize", measure], ["power", sigma, "--t", "0.5"],
             ["verify", "--suite", "all", "--trials", "2"]):
    code = spdmeans.cli.main(argv)
    assert code == 0, (argv, code)
"""


def test_package_and_cli_run_without_scipy(tmp_path):
    # scipy is a test-only dependency: the CLI must import and run with it absent,
    # including any import made inside a function
    rng = np.random.default_rng(7)
    a, b = rand_spd(rng, 3), rand_spd(rng, 3)
    mu = PMeasure([(0.5, a, SMeasure.power(0.3)), (0.5, b, SMeasure.lebesgue())])
    paths = []
    sigma = {"atoms": [{"weight": 0.5, "matrix": matrix_to_json(m)} for m in (a, b)]}
    for name, obj in (("a", matrix_to_json(a)), ("b", matrix_to_json(b)), ("mu", measure_json(mu)),
                      ("sigma", sigma)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(obj))
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY, *map(str, paths)],
                          capture_output=True, text=True, env=subprocess_env())
    assert proc.returncode == 0, proc.stderr
