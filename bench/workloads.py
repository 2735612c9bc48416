"""Seeded inputs and operation lists for the three benchmark workloads.

Inputs come from this module's own generator, not from ``spdmeans.verify``,
so that changes to the library's generators cannot change the workloads.

Each op works on a *scene*: a measure, plus the points an op needs.  The
shape of a scene (eigenvalue spectra, atom weights, [0, 1]-measure
parameters, the relative orientation of its matrices) is drawn once from
the fixed ``GEOMETRY_SEED``; ``--seed`` draws one random rotation per scene
and turns every matrix of the scene by it.  Means commute with rotations,
so each seed poses the same problems in new coordinates.  The geometry is
fixed because the cost of a solve depends on it in a two-peaked way: on the
wide band a chord-Newton rebuild storm makes one solve 5-15x slower than
its neighbours.  With the geometry drawn per seed, ``ops_per_s`` of
``karcher-net`` had a quartile spread of 28% of its median over five seeds.

Every matrix is ``Q diag(d) Q.T`` with Q a random rotation and d spread
log-uniformly over the whole eigenvalue band (one eigenvalue per equal
sub-interval of the log band, in random order), so each op's conditioning
is set by its band.

A [0, 1]-measure is kept here as a plain spec tuple:

    ("dirac", s)  ("atoms", ((s, v), ...))  ("lebesgue", nodes)  ("power", t, nodes)

The library receives it as an ``SMeasure`` (API workloads) or as JSON
(``cli-json``); the checks in :mod:`checks` rebuild the quadrature rule
from the spec on their own.
"""

import json
import math
import os

import numpy as np

NODES = 64
NARROW = (1e-1, 1e1)
WIDE = (1e-3, 1e3)
KINDS = ("dirac", "atoms", "lebesgue", "power")
WORKLOADS = ("karcher-net", "many-atoms", "cli-json")
GEOMETRY_SEED = 160106777


class Op:
    """One call into the library.

    ``run()`` is the timed call and returns the raw result; ``output(ret)``
    gives the bytes that must repeat exactly on every round; ``check(ret)``
    raises :class:`checks.CheckFailed` when the result is wrong.
    ``info`` holds what the per-layer summary needs (api name, atom count).
    """

    __slots__ = ("kind", "run", "output", "check", "info")

    def __init__(self, kind, run, output, check, info):
        self.kind = kind
        self.run = run
        self.output = output
        self.check = check
        self.info = info


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------


def rotation(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def spectrum(rng, n, band):
    lo, hi = band
    u = (rng.permutation(n) + rng.uniform(size=n)) / n
    return lo * (hi / lo) ** u


def spd(rng, n, band, q=None):
    q = rotation(rng, n) if q is None else q
    a = (q * spectrum(rng, n, band)) @ q.T
    return 0.5 * (a + a.T)


def simplex(rng, k):
    w = rng.uniform(0.5, 1.5, k)
    w = w / w.sum()
    w[-1] = 1.0 - w[:-1].sum()
    return [float(v) for v in w]


def nu_spec(rng, kind):
    if kind == "dirac":
        return ("dirac", float(rng.uniform(0.1, 0.9)))
    if kind == "atoms":
        v = simplex(rng, 2)
        return ("atoms", tuple(zip((float(s) for s in rng.uniform(0.0, 1.0, 2)), v)))
    if kind == "lebesgue":
        return ("lebesgue", NODES)
    return ("power", float(rng.uniform(0.2, 0.8)), NODES)


def turned(rng, *mats):
    """The matrices of one scene, all turned by one random rotation."""
    q = rotation(rng, mats[0].shape[0])
    out = [(q @ m) @ q.T for m in mats]
    return [0.5 * (m + m.T) for m in out]


def turned_atoms(rng, atoms):
    mats = turned(rng, *(m for _, m, _ in atoms))
    return [(w, m, spec) for (w, _, spec), m in zip(atoms, mats)]


def mixed_atoms(rng, n, k, band, offset=0, common_rotation=False):
    """k atoms with the nu kinds cycled from ``offset``: [(weight, matrix, spec)]."""
    q = rotation(rng, n) if common_rotation else None
    w = simplex(rng, k)
    return [
        (w[i], spd(rng, n, band, q), nu_spec(rng, KINDS[(offset + i) % len(KINDS)]))
        for i in range(k)
    ]


# ---------------------------------------------------------------------------
# conversion to the library's input forms
# ---------------------------------------------------------------------------


def to_smeasure(sm, spec):
    kind = spec[0]
    if kind == "dirac":
        return sm.SMeasure.dirac(spec[1])
    if kind == "atoms":
        return sm.SMeasure.from_atoms(spec[1])
    if kind == "lebesgue":
        return sm.SMeasure.lebesgue(spec[1])
    return sm.SMeasure.power(spec[1], spec[2])


def to_pmeasure(sm, atoms):
    return sm.PMeasure([(w, m, to_smeasure(sm, spec)) for w, m, spec in atoms])


def spec_json(spec):
    kind = spec[0]
    if kind == "dirac":
        return {"type": "dirac", "s": spec[1]}
    if kind == "atoms":
        return {"type": "atoms", "points": [{"s": s, "w": v} for s, v in spec[1]]}
    if kind == "lebesgue":
        return {"type": "lebesgue", "nodes": spec[1]}
    return {"type": "power", "t": spec[1], "nodes": spec[2]}


def matrix_json(m):
    return {"dim": int(m.shape[0]), "data": m.tolist()}


def measure_json(atoms):
    return {
        "atoms": [
            {"weight": w, "nu": spec_json(spec), "matrix": matrix_json(m)}
            for w, m, spec in atoms
        ]
    }


def write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def report_bytes(report):
    """Bytes of a SolverReport that must repeat exactly (no library serializer)."""
    trace = repr([(float(t), int(k)) for t, k in report.t_trace]).encode()
    return report.mean.tobytes() + repr(int(report.iterations)).encode() + trace


def _api_op(kind, fn, atoms, check):
    return Op(kind, fn, report_bytes, check, {"api": kind.split()[0], "atoms": len(atoms)})


def karcher_net(sm, ck, rng, turn, workdir):
    """lambda_mean on 3-atom measures, n in {4, 6}, two bands, closed forms mixed in."""
    ops = []
    for n in (4, 6):
        for band, tag in ((NARROW, "narrow"), (WIDE, "wide")):
            for j in range(2):
                atoms = turned_atoms(turn, mixed_atoms(rng, n, 3, band, offset=2 * j + (band is WIDE)))
                mu = to_pmeasure(sm, atoms)
                ops.append(_api_op(
                    f"lambda_mean n={n} {tag}", lambda mu=mu: sm.lambda_mean(mu), atoms,
                    lambda r, a=atoms: ck.check_karcher(r.mean, a),
                ))
        # two-point Lebesgue: the Karcher mean is the weighted geometric mean
        a, b = turned(turn, spd(rng, n, NARROW), spd(rng, n, NARROW))
        w = simplex(rng, 2)
        atoms = [(w[0], a, ("lebesgue", NODES)), (w[1], b, ("lebesgue", NODES))]
        mu = to_pmeasure(sm, atoms)
        ops.append(_api_op(
            f"lambda_mean n={n} two-point", lambda mu=mu: sm.lambda_mean(mu), atoms,
            lambda r, a=atoms: ck.check_two_point(r.mean, a),
        ))
        # commuting atoms: the mean is diagonal in the shared basis
        atoms = turned_atoms(turn, mixed_atoms(rng, n, 3, NARROW, offset=n, common_rotation=True))
        mu = to_pmeasure(sm, atoms)
        ops.append(_api_op(
            f"lambda_mean n={n} commuting", lambda mu=mu: sm.lambda_mean(mu), atoms,
            lambda r, a=atoms: ck.check_commuting(r.mean, a),
        ))
    return ops


def many_atoms(sm, ck, rng, turn, workdir):
    """Descent, induced and power means on 60-atom measures, n in {2, 3, 4}."""
    ops = []
    for n in (2, 3, 4):
        for j in range(2):
            atoms = turned_atoms(turn, mixed_atoms(rng, n, 60, NARROW, offset=j))
            mu = to_pmeasure(sm, atoms)
            sigma = mu.matrix_pairs()
            ops.append(_api_op(
                f"minimize_divergence n={n}", lambda mu=mu: sm.minimize_divergence(mu), atoms,
                lambda r, a=atoms: ck.check_karcher(r.mean, a),
            ))
            ops.append(_api_op(
                f"induced_mean n={n}", lambda mu=mu: sm.induced_mean(0.5, mu), atoms,
                lambda r, a=atoms: ck.check_induced(r.mean, a, 0.5),
            ))
            ops.append(_api_op(
                f"power_mean n={n}", lambda s=sigma: sm.power_mean(0.5, s), atoms,
                lambda r, a=atoms: ck.check_power(r.mean, a, 0.5),
            ))
    return ops


def _cli_op(sm, kind, argv, out, check, atoms):
    def run():
        rc = sm.cli.main(argv + ["--output", out])
        if rc != 0:
            raise RuntimeError(f"spdmeans {' '.join(argv)} exited with {rc}")
        return out

    def output(path):
        with open(path, "rb") as fh:
            return fh.read()

    return Op(f"cli {kind}", run, output, lambda path: check(output(path)),
              {"api": "cli." + kind, "atoms": atoms})


def cli_json(sm, ck, rng, turn, workdir):
    """metric, residual, divergence and minimize through cli.main, 20-atom measures."""
    ops = []
    for n in (3, 4):
        for j in range(2):
            stem = os.path.join(workdir, f"n{n}-{j}")
            atoms = mixed_atoms(rng, n, 20, NARROW, offset=j)
            points = [spd(rng, n, NARROW) for _ in range(3)]
            *mats, a, b, x = turned(turn, *(m for _, m, _ in atoms), *points)
            atoms = [(w, m, spec) for (w, _, spec), m in zip(atoms, mats)]
            files = {k: f"{stem}-{k}.json" for k in ("measure", "a", "b", "x")}
            write_json(files["measure"], measure_json(atoms))
            for k, m in (("a", a), ("b", b), ("x", x)):
                write_json(files[k], matrix_json(m))
            out = f"{stem}-out-%s.json"
            ops.append(_cli_op(
                sm, "metric", ["metric", files["a"], files["b"]], out % "metric",
                lambda raw, a=a, b=b: ck.check_metric_json(raw, a, b), 0,
            ))
            for kind, check in (
                ("residual", lambda raw, a=atoms, x=x: ck.check_residual_json(raw, a, x)),
                ("divergence", lambda raw, a=atoms, x=x: ck.check_divergence_json(raw, a, x)),
            ):
                ops.append(_cli_op(
                    sm, kind, [kind, files["measure"], files["x"]], out % kind, check, 20,
                ))
            ops.append(_cli_op(
                sm, "minimize", ["minimize", files["measure"]], out % "minimize",
                lambda raw, a=atoms: ck.check_minimize_json(raw, a), 20,
            ))
    return ops


BUILDERS = {"karcher-net": karcher_net, "many-atoms": many_atoms, "cli-json": cli_json}


def build(workload, sm, ck, seed, workdir):
    """The seeded op list of one round; the same seed gives the same ops."""
    k = WORKLOADS.index(workload)
    geometry = np.random.default_rng([GEOMETRY_SEED, k])
    turn = np.random.default_rng([seed, k])
    return BUILDERS[workload](sm, ck, geometry, turn, workdir)
