import ast
import json
import pathlib
import subprocess
import sys

import numpy as np

import spdmeans
from conftest import measure_json, rand_spd, subprocess_env
from spdmeans import PMeasure, SMeasure, matrix_to_json


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
    # a test differentiates a represented function at 1; the scalar kernels are
    # eval_monotone of a Dirac measure, no command writes measure JSON, a matrix
    # function is monotone._apply, and sym_matrix and smeasure_from_json are
    # module functions behind spd_matrix and pmeasure_from_json; geodesic convexity is
    # verify's divergence.geodesic_convexity row
    for name in ("RgdConfig", "integrate", "transpose_measure", "mean_kernel_inv",
                 "SpectralDecomposition", "spectral", "spd_power", "check_normalization",
                 "log_kernel", "log_kernel_inv", "harmonic_kernel", "mean_kernel",
                 "smeasure_to_json", "pmeasure_to_json", "apply_scalar_fn", "sym_matrix",
                 "smeasure_from_json", "geodesic_convexity_check"):
        assert name not in spdmeans.__all__
        assert not hasattr(spdmeans, name)
    assert not hasattr(spdmeans.divergence, "geodesic_convexity_check")


def _used_names(path):
    """Every name a file reads, as a bare name or an attribute."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def test_every_export_has_a_caller_outside_the_tests():
    # an export is used by another module of the package, a demo or the benchmark
    src = pathlib.Path(spdmeans.__file__).parent
    repo = src.parents[1]
    used = {path: _used_names(path)
            for path in [*src.glob("*.py"), *(repo / "demos").glob("*.py"),
                         *(repo / "bench").glob("*.py")]}
    exempt = {"eval_monotone", "eval_mean"}  # until ROADMAP item 2
    for name in sorted(set(spdmeans.__all__) - exempt):
        own = {src / f"{getattr(spdmeans, name).__module__.split('.')[-1]}.py", src / "__init__.py"}
        callers = [path for path, names in used.items() if name in names and path not in own]
        assert callers, f"{name} is exported but only its own module and the tests use it"


def test_only_core_calls_eigh():
    # every spectrum of the package comes from core's one spectral layer
    src = pathlib.Path(spdmeans.__file__).parent
    callers = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                if name in ("eigh", "eigvalsh"):
                    callers.add(path.name)
    assert callers == {"core.py"}


_NO_SCIPY = """
import sys
sys.modules["scipy"] = None  # any import of scipy or a submodule now raises ImportError
import spdmeans, spdmeans.cli
a, b, measure = sys.argv[1:]
for argv in (["metric", a, b], ["lambda", measure], ["verify", "--suite", "all", "--trials", "2"]):
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
    for name, obj in (("a", matrix_to_json(a)), ("b", matrix_to_json(b)), ("mu", measure_json(mu))):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(obj))
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY, *map(str, paths)],
                          capture_output=True, text=True, env=subprocess_env())
    assert proc.returncode == 0, proc.stderr
