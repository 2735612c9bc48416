"""Traced mode: spans around the library's public functions and numeric kernels.

The tracer wraps, from outside the package, every public function of
``spdmeans.core``, ``monotone``, ``solver``, ``thompson``, ``divergence``,
``measures`` and ``cli`` (each binding of it in every ``spdmeans`` module,
so calls between modules are seen too), plus ``numpy.linalg.eigh`` and
``eigvalsh``, ``numpy.tensordot`` and ``scipy.linalg.lu_factor`` and
``lu_solve``.  Each call records a span (name, start, end, parent span,
op id) in memory; :meth:`Tracer.save` writes them out at the end of the
run.  A span's self time is its duration minus the durations of its
direct children.
"""

import functools
import inspect
import json
import sys
from array import array
from fractions import Fraction
from time import perf_counter

import numpy as np
import scipy.linalg

LAYERS = ("core", "monotone", "solver", "thompson", "divergence", "measures", "cli")
KERNELS = (
    (np.linalg, "eigh", "linalg.eigh"),
    (np.linalg, "eigvalsh", "linalg.eigvalsh"),
    (np, "tensordot", "linalg.tensordot"),
    (scipy.linalg, "lu_factor", "linalg.lu_factor"),
    (scipy.linalg, "lu_solve", "linalg.lu_solve"),
)

# per-layer metrics: (name, unit); the README says what each should move
PER_LAYER = (
    ("linalg.tensordot.calls", "count"),
    ("linalg.tensordot.self_ms", "ms"),
    ("linalg.lu_factor.calls", "count"),
    ("linalg.lu_solve.calls", "count"),
    ("solver.residual_evals", "count"),
    ("solver.useful_eval_ratio", "ratio"),
    ("solver.levels", "count"),
    ("solver.iterations", "count"),
    ("solver.lambda_mean.self_ms", "ms"),
    ("linalg.eigh.calls", "count"),
    ("linalg.eigh.matrices", "count"),
    ("linalg.eigh.self_ms", "ms"),
    ("linalg.eigvalsh.calls", "count"),
    ("core.sqrt_pair.calls", "count"),
    ("core.sqrt_pair.self_ms", "ms"),
    ("monotone.log_kernel_grid.calls", "count"),
    ("monotone.log_kernel_grid.self_ms", "ms"),
    ("solver.induced_mean.self_ms", "ms"),
    ("solver.power_mean.self_ms", "ms"),
    ("solver.apriori_bound_ms", "ms"),
    ("divergence.objective.calls", "count"),
    ("divergence.objective.self_ms", "ms"),
    ("divergence.iterations", "count"),
    ("divergence.accept_ratio", "ratio"),
    ("thompson.distance.calls", "count"),
    ("thompson.distance.self_ms", "ms"),
    ("measures.pmeasure_from_json.self_ms", "ms"),
    ("core.spd_matrix.calls", "count"),
    ("core.matrix_to_json.self_ms", "ms"),
    ("cli.main.self_ms", "ms"),
    ("cli.output_bytes", "bytes"),
)

FIXED_POINT_APIS = ("lambda_mean", "induced_mean")
DESCENT_APIS = ("minimize_divergence", "cli.minimize")


class Tracer:
    """Span recorder; :meth:`install` patches the library, :meth:`uninstall` restores it."""

    def __init__(self):
        self.names = []
        self.name = array("i")
        self.parent = array("i")
        self.opid = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.op = -1
        self.eigh_matrices = 0
        self._patched = []

    def _wrap(self, label, fn, count_matrices=False):
        k = len(self.names)
        self.names.append(label)
        name, parent, opid, start, end, stack = (
            self.name, self.parent, self.opid, self.start, self.end, self.stack,
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            name.append(k)
            parent.append(stack[-1] if stack else -1)
            opid.append(self.op)
            end.append(0.0)
            if count_matrices:
                self.eigh_matrices += int(np.prod(np.shape(args[0])[:-2]))
            stack.append(i)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()

        return wrapper

    def _patch(self, module, attr, new):
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def install(self, package):
        """Wrap the kernels and every public function of the traced layers."""
        modules = [m for n, m in sys.modules.items()
                   if n == package.__name__ or n.startswith(package.__name__ + ".")]
        for module, attr, label in KERNELS:
            self._patch(module, attr, self._wrap(label, getattr(module, attr),
                                                 count_matrices=attr == "eigh"))
        for layer in LAYERS:
            owner = sys.modules[f"{package.__name__}.{layer}"]
            for attr, fn in inspect.getmembers(owner, inspect.isfunction):
                if attr.startswith("_") or fn.__module__ != owner.__name__:
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn)
                for module in modules:
                    for binding, value in list(vars(module).items()):
                        if value is fn:
                            self._patch(module, binding, wrapped)

    def uninstall(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    # -- summaries ---------------------------------------------------------

    def _columns(self):
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return name, parent, dur, dur - child

    def table(self):
        """{name: (calls, total_ms, self_ms)} over every recorded span."""
        name, _, dur, self_t = self._columns()
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k) * 1e3
        own = np.bincount(name, weights=self_t, minlength=k) * 1e3
        return {n: (int(calls[i]), float(total[i]), float(own[i]))
                for i, n in enumerate(self.names) if calls[i]}

    def per_layer(self, ops):
        """Per-layer metrics per op; ``ops`` lists (info, iterations, levels, out_bytes)."""
        name, parent, dur, _ = self._columns()
        opid = np.frombuffer(self.opid, dtype=np.int32)
        attempted = len(ops)
        table = self.table()
        idx = {n: i for i, n in enumerate(self.names)}

        def calls(label):
            return table.get(label, (0, 0.0, 0.0))[0]

        def self_ms(label):
            return table.get(label, (0, 0.0, 0.0))[2]

        def calls_by_op(label):
            if label not in idx:
                return np.zeros(attempted, dtype=np.int64)
            sel = (name == idx[label]) & (opid >= 0)
            return np.bincount(opid[sel], minlength=attempted)

        lkg = calls_by_op("monotone.log_kernel_grid")
        objective = calls_by_op("divergence.objective")
        evals = [Fraction(int(c), info["atoms"]) if info["atoms"] else Fraction(0)
                 for c, (info, *_) in zip(lkg, ops)]
        fp = [i for i, (info, *_) in enumerate(ops) if info["api"] in FIXED_POINT_APIS]
        dsc = [i for i, (info, *_) in enumerate(ops) if info["api"] in DESCENT_APIS]

        apriori = 0.0
        if "solver.induced_mean" in idx:
            induced = name == idx["solver.induced_mean"]
            under = np.zeros(len(name), dtype=bool)
            has = parent >= 0
            under[has] = induced[parent[has]]
            kids = np.isin(name, [idx.get("solver.iteration_map", -1), idx.get("thompson.distance", -1)])
            apriori = float(dur[under & kids].sum()) * 1e3

        def ratio(num, den):
            return float(Fraction(num) / den) if den else 0.0

        per_op = {
            "linalg.tensordot.calls": Fraction(calls("linalg.tensordot")),
            "linalg.tensordot.self_ms": self_ms("linalg.tensordot"),
            "linalg.lu_factor.calls": Fraction(calls("linalg.lu_factor")),
            "linalg.lu_solve.calls": Fraction(calls("linalg.lu_solve")),
            "solver.residual_evals": sum(evals, Fraction(0)),
            "solver.levels": Fraction(sum(ops[i][2] for i in fp)),
            "solver.iterations": Fraction(sum(ops[i][1] for i in fp)),
            "solver.lambda_mean.self_ms": self_ms("solver.lambda_mean"),
            "linalg.eigh.calls": Fraction(calls("linalg.eigh")),
            "linalg.eigh.matrices": Fraction(self.eigh_matrices),
            "linalg.eigh.self_ms": self_ms("linalg.eigh"),
            "linalg.eigvalsh.calls": Fraction(calls("linalg.eigvalsh")),
            "core.sqrt_pair.calls": Fraction(calls("core.sqrt_pair")),
            "core.sqrt_pair.self_ms": self_ms("core.sqrt_pair"),
            "monotone.log_kernel_grid.calls": Fraction(calls("monotone.log_kernel_grid")),
            "monotone.log_kernel_grid.self_ms": self_ms("monotone.log_kernel_grid"),
            "solver.induced_mean.self_ms": self_ms("solver.induced_mean"),
            "solver.power_mean.self_ms": self_ms("solver.power_mean"),
            "solver.apriori_bound_ms": apriori,
            "divergence.objective.calls": Fraction(calls("divergence.objective")),
            "divergence.objective.self_ms": self_ms("divergence.objective"),
            "divergence.iterations": Fraction(sum(ops[i][1] for i in dsc)),
            "thompson.distance.calls": Fraction(calls("thompson.distance")),
            "thompson.distance.self_ms": self_ms("thompson.distance"),
            "measures.pmeasure_from_json.self_ms": self_ms("measures.pmeasure_from_json"),
            "core.spd_matrix.calls": Fraction(calls("core.spd_matrix")),
            "core.matrix_to_json.self_ms": self_ms("core.matrix_to_json"),
            "cli.main.self_ms": self_ms("cli.main"),
            "cli.output_bytes": Fraction(sum(o[3] for o in ops)),
        }
        out = {k: float(v / attempted) if isinstance(v, Fraction) else v / attempted
               for k, v in per_op.items()}
        out["solver.useful_eval_ratio"] = ratio(
            sum(ops[i][1] for i in fp), sum((evals[i] for i in fp), Fraction(0)))
        out["divergence.accept_ratio"] = ratio(
            sum(ops[i][1] for i in dsc), int(sum(objective[i] for i in dsc)))
        units = dict(PER_LAYER)
        return {k: {"value": out[k], "unit": units[k]} for k, _ in PER_LAYER}

    def save(self, path):
        """Write the spans as columns (name index, parent, op id, start, end) plus names."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.opid, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )


def op_record(op, ret, out_bytes):
    """(info, iterations, levels, output bytes) of one traced op."""
    api = op.info["api"]
    if api.startswith("cli."):
        iters = levels = 0
        if api == "cli.minimize":
            rep = json.loads(out_bytes)
            iters, levels = int(rep["iterations"]), len(rep["t_trace"])
        return op.info, iters, levels, len(out_bytes)
    return op.info, int(ret.iterations), len(ret.t_trace), 0
