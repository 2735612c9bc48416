"""Command-line front end.

Subcommands: ``mean``, ``lambda``, ``power``, ``residual``, ``metric``,
``divergence``, ``minimize``, ``verify``.  All matrix and measure I/O uses
the JSON schemas of :mod:`spdmeans.core` / :mod:`spdmeans.measures`;
numeric output is serialized with shortest round-trip floats, so the same
input gives byte-identical output on the same numpy/BLAS build with the same
BLAS thread count (from n = 14 the Newton step's dense solve may round
differently at another thread count).

Exit codes: 0 success, 1 input error (malformed JSON, missing file, bad
flag), 2 solver non-convergence.
"""

import argparse
import dataclasses
import json
import sys
from functools import lru_cache

import numpy as np

from . import divergence as dvg
from . import measures, solver, thompson, verify
from .core import matrix_from_json, matrix_to_json
from .errors import NonConvergence, SpdMeansError


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SpdMeansError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpdMeansError(f"malformed JSON in {path}: {exc}") from exc


_PARSERS = {"measure": measures.pmeasure_from_json, "matrix": matrix_from_json,
            "matrix-list": measures._json_atoms}


def _load(path, kind):
    """The ``kind`` input in the JSON file at path; a parser error, of its type, names the file."""
    obj = _load_json(path)
    try:
        return _PARSERS[kind](obj)
    except SpdMeansError as exc:
        raise type(exc)(f"bad {kind} JSON in {path}: {exc}") from exc


def _write(text, path):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _solver_config(args):
    """SolverConfig of the flags given; every other setting keeps its dataclass default."""
    fields = (f.name for f in dataclasses.fields(solver.SolverConfig))
    return solver.SolverConfig(**{k: getattr(args, k) for k in fields if k in args})


# each subcommand takes only the options it reads, plus --output; solver settings
# default to SolverConfig's, so an absent flag stays out of the namespace
_OPTIONS = {
    "t": dict(type=float, required=True),
    "fp-tol": dict(type=float, default=argparse.SUPPRESS),
    "max-iters": dict(type=int, default=argparse.SUPPRESS),
    "lambda-tol": dict(type=float, default=argparse.SUPPRESS),
    "grad-tol": dict(type=float, default=argparse.SUPPRESS),
    "seed": dict(type=int, default=0),
    "suite": dict(default="all"),
    "trials": dict(type=int, default=50),
    "dim": dict(type=int, default=4),
}

_COMMANDS = (
    ("mean", "induced mean at parameter t", ["measure"], ["t", "fp-tol", "max-iters"]),
    ("lambda", "Karcher mean (t -> 0 net limit)", ["measure"],
     ["fp-tol", "max-iters", "lambda-tol"]),
    ("power", "matrix power mean of a matrix list", ["sigma"],
     ["t", "fp-tol", "max-iters"]),
    ("residual", "Karcher residual at a point", ["measure", "x"], []),
    ("metric", "Thompson distance of two matrices", ["a", "b"], []),
    ("divergence", "integrated divergence at a point", ["measure", "x"], []),
    ("minimize", "Newton minimizer of the divergence", ["measure"], ["grad-tol", "max-iters"]),
    ("verify", "seeded invariant suites", [], ["suite", "trials", "dim", "seed"]),
)


@lru_cache(maxsize=None)  # built once per process; parse_args keeps no state in it
def _build_parser():
    p = argparse.ArgumentParser(prog="spdmeans", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    for name, help_text, positionals, options in _COMMANDS:
        sp = sub.add_parser(name, help=help_text)
        for arg in positionals:
            sp.add_argument(arg)
        for opt in options:
            sp.add_argument(f"--{opt}", **_OPTIONS[opt])
        sp.add_argument("--output", default="-", metavar="PATH|-")
    return p


def _run(args):
    cmd = args.command
    if cmd == "verify":
        lines = []
        ok = verify.run_suite(args.suite, args.seed, args.dim, args.trials, out=lines.append)
        _write("\n".join(lines) + "\n", args.output)
        return 0 if ok else 1
    if "measure" in args:
        mu = _load(args.measure, "measure")
    if cmd == "mean":
        out = solver.induced_mean(args.t, mu, _solver_config(args)).to_json()
    elif cmd == "lambda":
        out = solver.lambda_mean(mu, _solver_config(args)).to_json()
    elif cmd == "power":
        sigma = _load(args.sigma, "matrix-list")
        out = solver.power_mean(args.t, sigma, _solver_config(args)).to_json()
    elif cmd == "residual":
        r = solver.karcher_residual(_load(args.x, "matrix"), mu)
        out = {"residual_norm": float(np.linalg.norm(r)), "residual": matrix_to_json(r)}
    elif cmd == "metric":
        out = {"d_inf": thompson.distance(_load(args.a, "matrix"), _load(args.b, "matrix"))}
    elif cmd == "divergence":
        out = {"objective": dvg.objective(_load(args.x, "matrix"), mu)}
    else:
        out = dvg.minimize_divergence(mu, _solver_config(args)).to_json()
    _write(json.dumps(out) + "\n", args.output)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return _run(args)
    except NonConvergence as exc:
        sys.stderr.write(f"error: {exc} (iterations={exc.iterations})\n")
        return 2
    except SpdMeansError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
