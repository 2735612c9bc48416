"""Benchmark of spdmeans: one workload, one seed, one process.

    python3 bench/run.py --workload karcher-net --seed 1 --seconds 30 --trace 0

Builds the workload's seeded op list, sets up (import, inputs, JSON files,
one warm-up pass) several times, checks every op's output independently,
then repeats whole rounds of the op list for ``--seconds`` seconds.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
Progress, the unscaled times and a per-layer table go to standard error.

The end-to-end times are scaled to the reference speed of the machine
(:mod:`speed`): a fixed pass of numpy work is timed between the ops, and
every time is multiplied by ``speed.REFERENCE_S`` over that pass's mean.

BLAS and OpenMP are pinned to one thread before numpy is imported.  The
library is imported from ``src/`` of the checkout this file sits in; the
run fails (exit code 1) when that source tree is missing.
"""

import os
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import resource
import shutil
import statistics
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
WORKLOADS = ("karcher-net", "many-atoms", "cli-json")
SETUP_REPEATS = 3
# Passes of the speed reference timed before each set-up.
SETUP_SPEED_SAMPLES = 10
# Percentile reported as op_ms_tail: the highest one with at least ten
# samples beyond it at the default run length (samples per run in README),
# except on cli-json: there its slowest op makes the top 6% of samples, so
# p99 is that op's slowest eighth (118-181 ms over ten runs of the same
# work) and p95 the edge to the next op; p97 is that op's median.
TAIL_PERCENTILE = {"karcher-net": 80, "many-atoms": 95, "cli-json": 97}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_library():
    """Import spdmeans (and its CLI) from this checkout's src/; seconds taken."""
    if not (SRC / "spdmeans" / "__init__.py").is_file():
        raise SystemExit(f"error: no spdmeans source tree at {SRC}")
    sys.path.insert(0, str(SRC))
    t = time.perf_counter()
    sm = importlib.import_module("spdmeans")
    importlib.import_module("spdmeans.cli")
    elapsed = time.perf_counter() - t
    if Path(sm.__file__).resolve().parent != SRC / "spdmeans":
        raise SystemExit(f"error: spdmeans imported from {sm.__file__}, not {SRC}")
    return sm, elapsed


def attempt(op):
    """Run one op; (result, seconds), result None when the op raised."""
    t = time.perf_counter()
    try:
        ret = op.run()
    except Exception as exc:  # a failed op is counted, not fatal
        print(f"op failed: {op.kind}: {type(exc).__name__}: {exc}", file=sys.stderr)
        ret = None
    return ret, time.perf_counter() - t


def set_up(workloads, workload, sm, checks, seed, workdir):
    """Build inputs, write JSON files and run one warm-up pass; (ops, results, seconds)."""
    t = time.perf_counter()
    ops = workloads.build(workload, sm, checks, seed, workdir)
    results = [attempt(op)[0] for op in ops]
    return ops, results, time.perf_counter() - t


def check_outputs(ops, results, checks):
    """Independent check of every warm-up result; (all passed, reference bytes)."""
    ok = True
    reference = []
    for op, ret in zip(ops, results):
        if ret is None:
            reference.append(None)
            continue
        try:
            op.check(ret)
        except checks.CheckFailed as exc:
            print(f"check failed: {op.kind}: {exc}", file=sys.stderr)
            ok = False
        reference.append(op.output(ret))
    return ok, reference


def timed_rounds(ops, reference, seconds, speedometer=None, tracer=None, record=None):
    """Repeat whole rounds until ``seconds`` have passed; returns the loop's tallies."""
    times, records = [], []
    attempted = failed = 0
    repeatable = True
    start = time.perf_counter()
    while True:
        for op, ref in zip(ops, reference):
            if speedometer is not None:
                speedometer.tick()
            if tracer is not None:
                tracer.op = attempted
            ret, dt = attempt(op)
            if tracer is not None:
                tracer.op = -1
            attempted += 1
            if ret is None:
                failed += 1
                out = b""
            else:
                times.append(dt)
                out = op.output(ret)
                if out != ref:
                    print(f"output changed between rounds: {op.kind}", file=sys.stderr)
                    repeatable = False
            if record is not None:
                records.append(record(op, ret, out))
        if time.perf_counter() - start >= seconds:
            break
    wall = time.perf_counter() - start
    return times, records, attempted, failed, wall, repeatable


def main(argv=None):
    args = parse_args(argv)
    sm, import_s = import_library()
    import checks
    import speed
    import tracing
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    speedometer = speed.Speedometer()
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            speedometer.sample(SETUP_SPEED_SAMPLES)
            ops, results, seconds = set_up(workloads, args.workload, sm, checks, args.seed, workdir)
            setups.append(seconds)
        correct, reference = check_outputs(ops, results, checks)

        tracer = tracing.Tracer() if args.trace else None
        if tracer is not None:
            tracer.install(sm)
        try:
            times, records, attempted, failed, wall, repeatable = timed_rounds(
                ops, reference, args.seconds, None if tracer else speedometer, tracer,
                tracing.op_record if tracer is not None else None,
            )
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = correct and repeatable and len(times) > 0

    print(f"{args.workload} seed {args.seed}: {attempted} ops in {len(ops)}-op rounds, "
          f"{failed} failed, {wall:.1f} s, {(attempted - failed) / wall:.3f} ops/s",
          file=sys.stderr)
    if tracer is not None:
        spans = OUT / f"spans-{args.workload}.npz"
        tracer.save(spans)
        print(f"{len(tracer.start)} spans written to {spans}", file=sys.stderr)
        print(f"{'span':40s} {'calls/op':>10s} {'total ms/op':>12s} {'self ms/op':>11s}",
              file=sys.stderr)
        for name, (calls, total, own) in sorted(tracer.table().items()):
            print(f"{name:40s} {calls / attempted:10.2f} {total / attempted:12.4f} "
                  f"{own / attempted:11.4f}", file=sys.stderr)
        metrics = tracer.per_layer(records)
    elif times:
        raw = {
            "op_ms_p50": statistics.median(times) * 1e3,
            "op_ms_tail": statistics.quantiles(times, n=100, method="inclusive")[
                TAIL_PERCENTILE[args.workload] - 1] * 1e3,
            "ops_per_s": len(times) / sum(times),
            "setup_s": import_s + statistics.median(setups),
        }
        factor = speedometer.factor()
        print(f"speed factor {factor:.4f} from {len(speedometer.times)} reference passes "
              f"(mean {speedometer.mean() * 1e3:.4f} ms); unscaled: "
              + " ".join(f"{k}={v:.6g}" for k, v in raw.items()), file=sys.stderr)
        metrics = {
            "op_ms_p50": {"value": raw["op_ms_p50"] * factor, "unit": "ms"},
            "op_ms_tail": {"value": raw["op_ms_tail"] * factor, "unit": "ms"},
            "ops_per_s": {"value": raw["ops_per_s"] / factor, "unit": "1/s"},
            "setup_s": {"value": raw["setup_s"] * factor, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    else:
        print("error: no op completed", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
