#!/usr/bin/env python3
"""Build the fleetbench package, then run one workload of the benchmark.

Run from the repository root:

    python3 fleetbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first run configures and builds fleetbench/ (the csm libraries, csmd
and the driver) under .bench_build/; later runs only re-check the build. Each
run gets a private directory under .bench_build/runs/ for csmd's socket, the
model pack and the captures, removed on every exit path. The driver's stdout
passes through unchanged: one "metric NAME VALUE UNIT" line per metric, then
the JSON result as the last line. Span files of traced runs go to
.bench_build/traces/. Exits non-zero without a result when the build fails.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(".bench_build", "fleetbench")
RUNS = os.path.join(".bench_build", "runs")
TRACES = os.path.join(".bench_build", "traces")
WORKLOADS = ("fleet-steady", "fleet-drift", "replay-refit")
DRIVER_TIMEOUT_S = 170


def build():
    jobs = str(os.cpu_count() or 1)
    if not any(os.path.exists(os.path.join(ROOT, BUILD, f))
               for f in ("Makefile", "build.ninja")):
        subprocess.run(["cmake", "-S", "fleetbench", "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       cwd=ROOT, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "fleetbench",
                    "csmd", "-j", jobs],
                   cwd=ROOT, stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every shape (the benchmark's own tests)")
    parser.add_argument("--perturb-reference", action="store_true",
                        help="alter the reference input: the gate must trip")
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"fleetbench: build failed: {e}", file=sys.stderr)
        return 2

    os.makedirs(os.path.join(ROOT, RUNS), exist_ok=True)
    run_dir = os.path.relpath(tempfile.mkdtemp(dir=os.path.join(ROOT, RUNS)),
                              ROOT)
    cmd = [os.path.join(BUILD, "fleetbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--csmd", os.path.join(BUILD, "csm", "tools", "csmd"),
           "--run-dir", run_dir, "--trace-dir", TRACES]
    if args.tiny:
        cmd.append("--tiny")
    if args.perturb_reference:
        cmd.append("--perturb-reference")

    # The driver and the csmd it spawns share one process group, so every
    # exit path can stop them together.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)

    def stop(*_):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()

    def on_signal(signum, _frame):
        stop()
        shutil.rmtree(os.path.join(ROOT, run_dir), ignore_errors=True)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        rc = proc.wait(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("fleetbench: driver timed out", file=sys.stderr)
        rc = 3
    finally:
        stop()
        shutil.rmtree(os.path.join(ROOT, run_dir), ignore_errors=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())
