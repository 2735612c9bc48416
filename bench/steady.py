"""Steadiness of the benchmark: run one workload N times and summarize.

    python3 bench/steady.py --workload karcher-net --runs 10 --first-seed 1 --save bench/out/set1.json
    python3 bench/steady.py --workload karcher-net --runs 10 --first-seed 11 \\
        --save bench/out/set2.json --against bench/out/set1.json

Each run is ``bench/run.py`` in its own process with the next seed and the
run length from ``BENCHMARK.json``.  For every end-to-end metric the
summary gives the median, the quartiles (``statistics.quantiles(n=4)``),
the quartile spread as a share of the median, and that spread against the
metric's bound (``setup_s`` is judged on its median only).  With
``--against`` it also gives the median's change against an earlier set, in
the worse direction, as a share of the earlier median.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--save", help="write the raw run results to this JSON file")
    p.add_argument("--against", help="raw results of an earlier set to compare medians with")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        res = run_once(args.workload, seed, spec["run_seconds"])
        results.append(res)
        shown = " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} {shown}", flush=True)
    if args.save:
        Path(args.save).write_text(json.dumps({"workload": args.workload, "runs": results}))
    earlier = json.loads(Path(args.against).read_text())["runs"] if args.against else None

    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"\n{args.workload}: {len(results)} runs, all correct: "
          f"{all(r['correct'] for r in results)}, failed shares: {sorted(shares)}")
    print(f"{'metric':12s} {'median':>11s} {'q1':>11s} {'q3':>11s} {'spread':>7s} "
          f"{'bound':>6s} {'/bound':>7s}" + (f" {'vs earlier':>10s}" if earlier else ""))
    for m in spec["end_to_end"]:
        name = m["name"]
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        line = (f"{name:12s} {med:11.5g} {q1:11.5g} {q3:11.5g} {spread:7.3f} "
                f"{m['bound']:6.2f} {spread / m['bound']:7.2f}")
        if earlier:
            before = statistics.median(r["metrics"][name]["value"] for r in earlier)
            change = (med - before) / before
            worse = change if m["better"] == "lower" else -change
            line += f" {worse:10.3f}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
