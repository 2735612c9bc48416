import ast
import pathlib

import spdmeans


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from spdmeans import *", namespace)
    assert len(spdmeans.__all__) == len(set(spdmeans.__all__))
    for name in spdmeans.__all__:
        assert namespace[name] is getattr(spdmeans, name)


def test_removed_names_stay_removed():
    # SolverConfig carries grad_tol, a measure's own integrals run on its flat
    # rule, SMeasure.transpose reflects a measure, nothing inverts mean_kernel, and
    # the one spectral route is core's whitened eigh and spectral_sum
    for name in ("RgdConfig", "integrate", "transpose_measure", "mean_kernel_inv",
                 "SpectralDecomposition", "spectral", "spd_power"):
        assert name not in spdmeans.__all__
        assert not hasattr(spdmeans, name)


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
