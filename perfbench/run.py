#!/usr/bin/env python3
"""Builds and runs the PECAN serving benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads below, or `all` to run each in turn.

Run from the repository root. The first call configures and builds the
library and the pecan_perfbench binary under $CARGO_TARGET_DIR (default
.bench_build); later calls rebuild only what changed. The binary's report is
passed through, and the last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"} with the end-to-end metrics
(--trace 0) or the per-layer metrics (--trace 1) named in BENCHMARK.json.
Per-layer step metrics of a model the workload does not serve read 0.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("lenet_wire_open", "resnet_bulk_batch", "mixed_swap_open")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures once, then builds the binary. Build output goes to stderr."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "pecan_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "pecan_perfbench")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def select(result, trace):
    """Keeps exactly the declared metrics; absent step metrics read 0."""
    produced = result["metrics"]
    metrics = {}
    for m in declared_metrics(trace):
        name = m["name"]
        if name in produced:
            metrics[name] = produced[name]
        elif trace and name.startswith("step."):
            metrics[name] = {"value": 0.0, "unit": m["unit"]}
        else:
            raise RuntimeError(f"pecan_perfbench did not report metric {name}")
    result["metrics"] = metrics
    return result


def run_workload(binary, workload, args, out_dir):
    """Runs one workload; passes its report through and prints the selected
    JSON result as the last line. Returns the exit code."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out_dir]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    watchdog.start()
    last = None
    try:
        for line in proc.stdout:
            if last is not None:
                sys.stdout.write(last)
            last = line
        proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    sys.stdout.flush()
    if proc.returncode < 0:
        log(f"pecan_perfbench killed by signal {-proc.returncode} (timeout {RUN_TIMEOUT_S} s)")
        return 3

    try:
        result = json.loads(last or "")
    except json.JSONDecodeError:
        if last:
            sys.stdout.write(last)
        log(f"pecan_perfbench exited {proc.returncode} without a result")
        return proc.returncode or 2
    try:
        result = select(result, args.trace == 1)
    except (RuntimeError, OSError, KeyError, ValueError) as e:
        log(str(e))
        return 2
    print(json.dumps(result), flush=True)
    return proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or all of them in turn (one JSON line each)")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    base = target if os.path.isabs(target) else os.path.join(ROOT, target)
    try:
        binary = build(os.path.join(base, "perfbench"))
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 2

    out_dir = os.path.join(base, "perfbench-out")
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run_workload(binary, w, args, out_dir) for w in workloads)


if __name__ == "__main__":
    sys.exit(main())
