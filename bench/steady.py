"""Steadiness command: run one workload repeatedly and summarise each metric.

    python3 bench/steady.py --workload sweep --runs 10 --seconds 35 [--first-seed 1]

Runs bench/run.py once per seed, one run at a time, from the root of the
checkout, and prints for every metric its median, first and third quartiles
(statistics.quantiles, n=4) and the quartile distance as a share of the
median, which is what the bounds in BENCHMARK.json are set against.  The
raw results are written to bench/out/steady-<workload>-<first seed>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def summarise(results: list) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = {"unit": results[0]["metrics"][name]["unit"], "median": med,
                     "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med, "values": values}
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=35)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args()
    if args.runs < 2:
        p.error("--runs must be at least 2 for quartiles")

    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        raw = [line for line in proc.stderr.splitlines() if line.startswith("raw:")]
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
              + (f"\n  {raw[-1]}" if raw else ""), flush=True)

    summary = summarise(results)
    failed_share = {r["failed"] / r["attempted"] for r in results}
    print(f"\n{args.workload}: {args.runs} runs of {args.seconds:g} s, "
          f"all correct: {all(r['correct'] for r in results)}, "
          f"failed shares: {sorted(failed_share)}")
    print(f"{'metric':40s} {'unit':>6s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s}")
    for name, s in summary.items():
        print(f"{name:40s} {s['unit']:>6s} {s['median']:12.6g} {s['q1']:12.6g} "
              f"{s['q3']:12.6g} {s['spread']:7.3f}")
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"steady-{args.workload}-{args.first_seed}.json", "w") as fh:
        json.dump({"workload": args.workload, "seconds": args.seconds,
                   "results": results, "summary": summary}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
