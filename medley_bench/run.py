#!/usr/bin/env python3
"""Build and run the benchmark of record, each workload in its own process.

    python3 medley_bench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 medley_bench/run.py --seed N [--trace 1] [--smoke] [--out DIR]

Run from the repository root. Builds bench_medley (Release) into the
directory named by $CARGO_TARGET_DIR, default .bench_build, then runs one
workload, or every workload when --workload is omitted. Each workload's
output ends with one JSON line: {"correct", "attempted", "failed",
"metrics"}, holding the end-to-end metrics (--trace 0) or the per-layer
metrics and the ledger (--trace 1). Each workload also writes a run JSON
(host facts + result) to --out, default <build dir>/runs, for compare.py.
Exits nonzero when the build fails, a correctness check fails, or a
workload does not finish.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["wire-write", "wire-read", "txn-hash", "txn-durable"]
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "tx_domain.cpp")):
        sys.exit("run.py: medley sources not found next to " + HERE)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release", *gen],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--parallel", "4"],
                   check=True, stdout=sys.stderr)


def run_workload(build_dir, out_dir, workload, args):
    """Runs one workload, echoes its output, and returns its exit code."""
    name = "%s-seed%d%s" % (workload, args.seed, "-trace" if args.trace else "")
    cmd = [os.path.join(build_dir, "bench_medley"),
           "--workload", workload, "--seed", str(args.seed),
           "--out", os.path.join(build_dir, "runs"),
           "--json", os.path.join(out_dir, name + ".json")]
    if args.seconds is not None:
        cmd += ["--seconds", repr(args.seconds)]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace:
        cmd += ["--trace", "--ledger"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: %s did not finish in %d s" % (workload, RUN_TIMEOUT_S),
              file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        json.loads(lines[-1])
    except ValueError:
        print("run.py: no result line from %s (exit %d)"
              % (workload, proc.returncode), file=sys.stderr)
        return proc.returncode or 1
    return proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload (default: every workload)")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="1 s per workload, 10k keys")
    ap.add_argument("--out", help="directory for the run JSONs")
    args = ap.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("run.py: build failed: %s" % e)

    out_dir = os.path.abspath(args.out or os.path.join(build_dir, "runs"))
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(os.path.join(build_dir, "runs"), exist_ok=True)
    codes = [run_workload(build_dir, out_dir, w, args)
             for w in ([args.workload] if args.workload else WORKLOADS)]
    sys.exit(1 if any(codes) else 0)


if __name__ == "__main__":
    main()
