"""Benchmark runner for rrsim.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; rrsim is imported from its `src/`.  One
client in one process and one thread runs closed-loop: each operation
starts when the previous one has finished.  The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.

--trace 0 times the workload for --seconds, in whole rounds, and reports
the end-to-end metrics.  --trace 1 alternates an untraced and a traced pass
over the workload's first rounds until --seconds are used, and reports the
per-layer metrics per operation of the traced passes, plus the tracing
overhead; the spans go to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("roundtrip", "cli-fullchip", "experiments", "calibrate")
SETUP_SAMPLES = 5
# op_p90_ms needs ten samples beyond it, so a run keeps going until this
# many operations have completed even when --seconds has passed.
MIN_COMPLETED = 100


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def use_checkout_src() -> None:
    if not os.path.isfile(os.path.join(SRC, "rrsim", "__init__.py")):
        sys.exit(f"bench: no rrsim package under {SRC}")
    sys.path.insert(0, SRC)


def set_up(name, seed, workdir):
    """Import rrsim, load the profile, build the workload, warm it up."""
    started = time.perf_counter()
    import workloads
    workload = workloads.WORKLOADS[name](seed, workdir)
    workload.warm_up()
    return workload, time.perf_counter() - started


def setup_in_fresh_process(args) -> float:
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", args.workload, "--seed", str(args.seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def timed_run(workload, seconds, rec):
    """Whole rounds until `seconds` of timed work and MIN_COMPLETED ops."""
    started = time.perf_counter()
    r = 0
    while True:
        workload.run_round(r, rec)
        r += 1
        elapsed = time.perf_counter() - started - rec.excluded_s
        if elapsed >= seconds and len(rec.latencies) >= MIN_COMPLETED:
            return elapsed


def end_to_end(args, workload, rec, first_setup_s):
    wall = timed_run(workload, args.seconds, rec)
    workload.finish()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups = [first_setup_s] + [setup_in_fresh_process(args)
                                for _ in range(SETUP_SAMPLES - 1)]
    ms = [t * 1e3 for t in rec.latencies]
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "ops_per_s": {"value": len(ms) / wall, "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(ms), "unit": "ms"},
        "op_p90_ms": {"value": statistics.quantiles(ms, n=10)[8], "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def per_layer(args, workload, rec):
    import tracing
    import workloads
    tracer = tracing.Tracer()
    plain, traced = [], []
    ops = 0
    started = time.perf_counter()
    while True:
        pair_started = time.perf_counter()
        for tracer_on in (False, True):
            pass_rec = workloads.Recorder(tracer if tracer_on else None)
            if tracer_on:
                tracer.install()
            t0 = time.perf_counter()
            try:
                for r in range(workload.trace_rounds):
                    workload.run_round(r, pass_rec)
            finally:
                if tracer_on:
                    tracer.uninstall()
            (traced if tracer_on else plain).append(
                time.perf_counter() - t0 - pass_rec.excluded_s)
            rec.latencies += pass_rec.latencies
            rec.failed += pass_rec.failed
            ops += pass_rec.attempted if tracer_on else 0
        pair_s = time.perf_counter() - pair_started
        if time.perf_counter() - started + pair_s > args.seconds:
            break
    workload.finish()
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.csv"))
    return tracer.metrics(ops, statistics.median(traced) - statistics.median(plain))


def main(argv=None) -> int:
    args = parse_args(argv)
    use_checkout_src()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    workload = None
    try:
        workload, setup_s = set_up(args.workload, args.seed, workdir)
        if args.setup_probe:
            print(repr(setup_s))
            return 0
        import checks
        import workloads
        rec = workloads.Recorder()
        correct = True
        metrics = {}
        try:
            if args.trace:
                metrics = per_layer(args, workload, rec)
            else:
                metrics = end_to_end(args, workload, rec, setup_s)
        except checks.CheckError as exc:
            print(f"bench: check failed: {exc}", file=sys.stderr)
            correct = False
        print(json.dumps({"correct": correct, "attempted": rec.attempted,
                          "failed": rec.failed, "metrics": metrics}))
        return 0 if correct else 1
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
