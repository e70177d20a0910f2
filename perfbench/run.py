"""clarke-kkt benchmark: one workload, measured end to end or traced per layer.

    python3 perfbench/run.py --workload solve|sample|estimate --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its `src/`.
The run repeats whole passes of the workload's operations until about S
seconds have gone, checks every output, and prints one JSON object as its
last line: `correct`, `attempted`, `failed` and `metrics`.  With --trace 0
the metrics are end to end; with --trace 1 passes alternate between untraced
and traced and the metrics are per layer.  Results and traces are written to
perfbench/out/.  See perfbench/README.md.

Times are CPU seconds of the process (time.process_time), not wall seconds:
on a shared virtual machine the wall time of the same work swings by half
with the time the hypervisor takes the CPU away, which the kernel does not
count as the process's CPU time.  BLAS runs on one thread, so the process's
CPU time is the work of the program and not of idle BLAS workers spinning.
"""
from __future__ import annotations

import os

# Before numpy is first imported, here or in a set-up interpreter.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_STARTS = 15


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("solve", "sample", "estimate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: set up one workload in a fresh interpreter, print "ready", exit.
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def use_checkout_source():
    """Import clarke_kkt from this checkout's src/, never from elsewhere."""
    if not (SRC / "clarke_kkt" / "__init__.py").is_file():
        raise SystemExit(f"error: no clarke_kkt package under {SRC}")
    sys.path.insert(0, str(SRC))
    import clarke_kkt
    if Path(clarke_kkt.__file__).resolve().parent != SRC / "clarke_kkt":
        raise SystemExit(f"error: clarke_kkt imported from {clarke_kkt.__file__}")


def measure_setup(args, workdir):
    """Median over fresh interpreters of the CPU time from their start until
    the first operation can run; also their wall times, for reference."""
    times, wall = [], []
    for k in range(SETUP_STARTS):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", "1",
                "--setup-probe", str(workdir / f"probe{k}")]
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            wall.append(time.perf_counter() - start)
            proc.stdout.read()
        word, _, cpu = line.partition(" ")
        if proc.returncode != 0 or word != "ready":
            raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
        times.append(float(cpu))
    return statistics.median(times), {"cpu_s": times, "wall_s": wall}


def run_pass(ops, tally, around=None):
    """Run ops once each; returns the CPU seconds the pass took."""
    import workloads
    start = time.process_time()
    for op in ops:
        tally.record(op, *workloads.execute(op, around))
    return time.process_time() - start


def repeat(seconds, one_round):
    """Run whole rounds until the next one would end more than half a round
    past `seconds` of wall time; returns the wall time elapsed and what each
    round returned."""
    start = time.perf_counter()
    results = []
    while True:
        results.append(one_round())
        elapsed = time.perf_counter() - start
        if elapsed >= seconds - elapsed / len(results) / 2:
            return elapsed, results


def warm_up(seed, workdir):
    """Untimed `check-properties` and `analyze` on P1, the first operations of
    the estimate and sample passes: they fill lazy imports and first-call
    caches on the code paths every workload uses."""
    import workloads
    for workload in ("estimate", "sample"):
        workloads.execute(workloads.prepare(workload, seed, workdir)[0])


def main(argv=None):
    args = parse_args(argv)
    use_checkout_source()
    import workloads
    if args.setup_probe:
        workloads.prepare(args.workload, args.seed, Path(args.setup_probe))
        print(f"ready {time.process_time()!r}", flush=True)
        return 0

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    tally = workloads.Tally()
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    try:
        if not args.trace:
            setup_s, detail["setup_samples"] = measure_setup(args, workdir)
        ops = workloads.prepare(args.workload, args.seed, workdir / "run")
        warm_up(args.seed, workdir / "warm")
        if args.trace:
            metrics = traced_run(args, ops, tally, detail)
        else:
            elapsed, passes = repeat(args.seconds, lambda: run_pass(ops, tally))
            metrics = {
                "ops_per_s": {"value": len(tally.times) / sum(passes), "unit": "1/s"},
                "op_p50_s": {"value": statistics.median(tally.times), "unit": "s"},
                "setup_s": {"value": setup_s, "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                "unit": "MB"},
            }
            detail["elapsed_s"], detail["pass_cpu_s"] = elapsed, passes
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {"correct": tally.unexpected == 0, "attempted": len(tally.times),
              "failed": tally.failed, "metrics": metrics}
    detail["op_seconds"] = op_seconds(ops, tally.times)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({**result, "detail": detail}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def op_seconds(ops, times):
    """Median seconds per operation label, in pass order."""
    per_label = {}
    for i, seconds in enumerate(times):
        per_label.setdefault(ops[i % len(ops)].label, []).append(seconds)
    return {label: statistics.median(s) for label, s in per_label.items()}


def traced_run(args, ops, tally, detail):
    """Alternate untraced and traced passes; per-layer metrics from the traced ones."""
    import tracer as tracing
    tracer = tracing.Tracer()
    plain, traced = [], []

    def pair():
        plain.append(run_pass(ops, tally))
        tracer.install()
        try:
            traced.append(run_pass(ops, tally, tracer.operation))
        finally:
            tracer.uninstall()

    detail["elapsed_s"] = repeat(args.seconds, pair)[0]
    n = len(ops)
    overhead = (sum(traced) - sum(plain)) / (n * len(traced))
    metrics = tracer.metrics(n * len(traced), overhead)
    detail["layer_shares"] = tracer.layer_shares()
    trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    trace_file.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                      "layer_shares": detail["layer_shares"],
                                      **tracer.dump()}) + "\n")
    print(f"layer shares of operation time: {detail['layer_shares']}", file=sys.stderr)
    return metrics


if __name__ == "__main__":
    sys.exit(main())
