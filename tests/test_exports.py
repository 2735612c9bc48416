import spdmeans


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from spdmeans import *", namespace)
    assert len(spdmeans.__all__) == len(set(spdmeans.__all__))
    for name in spdmeans.__all__:
        assert namespace[name] is getattr(spdmeans, name)


def test_removed_names_stay_removed():
    # SolverConfig carries grad_tol, a measure's own integrals run on its flat
    # rule, SMeasure.transpose reflects a measure, and nothing inverts mean_kernel
    for name in ("RgdConfig", "integrate", "transpose_measure", "mean_kernel_inv"):
        assert name not in spdmeans.__all__
        assert not hasattr(spdmeans, name)
