"""Benchmark command: one workload, one process, one thread.

    python3 bench/run.py --workload {sweep,queries,dynamics} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from its src/.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  --trace 0 reports the end-to-end metrics of
a run of S seconds; --trace 1 runs a fixed number of rounds, each once
untraced and once traced, reports the per-layer metrics and writes the spans
under bench/out/.  See bench/README.md for the workloads and metrics.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
PINNED_ENV = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1",
              "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "PYTHONPATH": str(ROOT / "src")}

if __name__ == "__main__" and any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
    # hash seed and thread counts only take effect at interpreter start
    os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **PINNED_ENV})

import argparse
import json
import resource
import statistics
import time

from checks import CheckFailure
from hostspeed import REFERENCE_S, Calibration
from tracer import Tracer
from workloads import WORKLOADS, canary, import_program

OUT = BENCH / "out"


class Runner:
    """Times operations, checks every output and counts failures."""

    def __init__(self, workload, calibration: Calibration):
        self.workload = workload
        self.cal = calibration
        self.latencies: list[float] = []
        self.starts: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []        # operations that raised
        self.wrong: list[str] = []           # outputs the checks rejected

    def run_round(self, ops) -> None:
        wl = self.workload
        for op in ops:
            self.attempted += 1
            start = time.perf_counter()
            try:
                output = wl.run(op)
            except Exception as exc:  # a failed operation is counted, not fatal
                self.failures.append(f"{op[0]}: {type(exc).__name__}: {exc}")
                continue
            elapsed = time.perf_counter() - start
            self.latencies.append(elapsed)
            self.starts.append(start)
            try:
                wl.check(op, output)
            except CheckFailure as exc:
                self.wrong.append(f"{op[0]}: wrong output: {exc}")
            self.cal.after_op(elapsed)


def measure(workload, seconds: float, cal: Calibration):
    runner = Runner(workload, cal)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        runner.run_round(workload.next_round())
    cal.sample()
    lat = [t * s for t, s in zip(runner.latencies, cal.local_scales(runner.starts))]
    metrics = {
        "ops_per_s": (len(lat) / sum(lat), "ops/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (statistics.quantiles(lat, n=100, method="inclusive")
                       [workload.tail_percentile - 1] * 1e3, "ms"),
    }
    return runner, metrics


class SetupClock:
    """Times the set-up in steps with two kernel passes between steps, and
    scales each step by the median of the four passes around it."""

    def __init__(self, cal: Calibration):
        self.cal = cal
        self.raw = self.scaled = 0.0
        self.before = [cal.sample(), cal.sample()]
        self.start = time.perf_counter()

    def pause(self) -> None:
        step = time.perf_counter() - self.start
        after = [self.cal.sample(), self.cal.sample()]
        self.raw += step
        self.scaled += step * REFERENCE_S / statistics.median(self.before + after)
        self.before = after
        self.start = time.perf_counter()


def traced(workload, tracer: Tracer, cal: Calibration):
    """Run each of a fixed number of rounds untraced and traced, alternating
    which goes first, so that host drift falls on both passes alike; counts
    repeat exactly for a seed."""
    passes = {"untraced": Runner(workload, cal), "traced": Runner(workload, cal)}
    for i in range(workload.trace_rounds):
        ops = workload.next_round()
        for mode in (("untraced", "traced") if i % 2 == 0 else ("traced", "untraced")):
            if mode == "traced":
                tracer.install()
            passes[mode].run_round(ops)
            tracer.uninstall()
    return passes


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "lineactions" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'lineactions'} is missing",
              file=sys.stderr)
        return 2

    tracer = Tracer() if args.trace else None
    workload = WORKLOADS[args.workload](args.seed, tracer.span if tracer else None)
    cal = Calibration()

    clock = SetupClock(cal)
    lib = import_program()
    if tracer:
        tracer.install()
    clock.pause()
    workload.setup(lib, clock.pause)
    clock.pause()

    if tracer:
        canary(lib, tracer.span)
        tracer.uninstall()
        passes = traced(workload, tracer, cal)
        runner = passes["traced"]
        scale = cal.scale()
        metrics = tracer.metrics(scale)
        overhead = (sum(runner.latencies) - sum(passes["untraced"].latencies)) * scale
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        runners = list(passes.values())
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                     {"workload": args.workload, "seed": args.seed,
                      "rounds": workload.trace_rounds, "time_scale": scale})
    else:
        runner, timing = measure(workload, args.seconds, cal)
        timing["setup_s"] = (clock.scaled, "s")
        timing["peak_rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                  "MiB")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in timing.items()}
        runners = [runner]
        print(f"raw: setup {clock.raw:.4f} s, {len(runner.latencies)} ops in "
              f"{sum(runner.latencies):.3f} s, median host scale {cal.scale():.4f} "
              f"from {len(cal.samples)} kernel passes", file=sys.stderr)

    failures = [f for r in runners for f in r.failures]
    wrong = [w for r in runners for w in r.wrong]
    for line in (failures + wrong)[:20]:
        print(line, file=sys.stderr)
    print(json.dumps({"correct": not wrong, "attempted": sum(r.attempted for r in runners),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
