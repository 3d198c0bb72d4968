#!/usr/bin/env python3
"""Build the engine and run one workload of the host benchmark.

    python3 perfbench/run.py --workload wiki-reach --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The first run configures and builds the
repository's libraries and the benchmark into .bench_build/perfbench (or
$CARGO_TARGET_DIR/perfbench when that is set); later runs only rebuild what
changed.  Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result.  `--workload all` runs every workload in turn.
See perfbench/README.md.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["wiki-reach", "lj-adverse", "fraud-churn"]
# A run must end within 180 s; the binary is stopped a little before that.
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configure once, then build incrementally.  Returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no engine sources in %s/src; run from the root "
                 "of a checkout of the repository" % ROOT)
    out = build_dir()
    steps = [["cmake", "--build", out, "-j", str(min(4, os.cpu_count() or 1))]]
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        print("perfbench: building into %s" % out, file=sys.stderr)
        steps.insert(0, ["cmake", "-S", HERE, "-B", out])
    for step in steps:
        proc = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.exit("perfbench: build failed: %s" % " ".join(step))
    return os.path.join(out, "perfbench")


def run_one(binary, workload, args):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale]
    if args.trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.jsonl" % (workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: %s did not finish within %d s" %
              (workload, RUN_TIMEOUT_S), file=sys.stderr)
        return False
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        print("perfbench: %s exited with code %d" %
              (workload, proc.returncode), file=sys.stderr)
        return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", choices=["full", "tiny"], default="full")
    args = ap.parse_args()

    binary = build()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    ok = all([run_one(binary, w, args) for w in workloads])
    if not ok:
        # A crash or a hang is a failed result check.
        print('{"correct": false, "attempted": 1, "failed": 1, '
              '"metrics": {}}')
        sys.exit(1)


if __name__ == "__main__":
    main()
