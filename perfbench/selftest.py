#!/usr/bin/env python3
"""Self-test of the host benchmark: every workload at tiny scale, in seconds.

    python3 perfbench/selftest.py

Runs each workload of the harness (the contract's, and lj-adverse) timed
and traced through perfbench/run.py with `--scale tiny` and checks that:
  - the last stdout line is the JSON result with exactly the keys correct,
    attempted, failed and metrics, and `correct` is true;
  - the metrics are exactly the end_to_end (timed) or per_layer (traced)
    metrics of BENCHMARK.json, each with its unit, and each also printed as
    a `metric <name> <value> <unit>` line;
  - failed_share is printed with unit `share` and is 0.
Exits non-zero on the first failure.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402  (the harness's workloads)


def fail(msg):
    sys.exit("selftest: FAIL: " + msg)


def lines_of(kind, stdout):
    """{name: (value, unit)} of the `kind name value unit` lines."""
    out = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] == kind:
            out[parts[1]] = (float(parts[2]), parts[3])
    return out


def check_run(workload, trace, expected):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--scale", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=300)
    what = "%s trace=%d" % (workload, trace)
    if proc.returncode != 0:
        fail("%s exited with %d" % (what, proc.returncode))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("%s: result keys %s" % (what, sorted(result)))
    if result["correct"] is not True or result["failed"] != 0:
        fail("%s: correct=%s failed=%s" %
             (what, result["correct"], result["failed"]))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("%s: attempted=%r" % (what, result["attempted"]))

    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        fail("%s: metrics differ from BENCHMARK.json: missing %s, extra or "
             "wrong unit %s" % (
                 what, sorted(set(expected.items()) - set(got.items())),
                 sorted(set(got.items()) - set(expected.items()))))
    printed = lines_of("metric", proc.stdout)
    for name, unit in expected.items():
        if printed.get(name, (None, None))[1] != unit:
            fail("%s: no `metric %s <value> %s` line" % (what, name, unit))
    share = lines_of("detail", proc.stdout).get("failed_share")
    if share != (0.0, "share"):
        fail("%s: failed_share line is %r, want 0 share" % (what, share))
    print("selftest: ok  %-12s trace=%d  %d metrics, %d checks" %
          (workload, trace, len(got), result["attempted"]))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in contract["per_layer"]}
    names = [w["name"] for w in contract["workloads"]]
    if not set(names) <= set(WORKLOADS):
        fail("BENCHMARK.json names workloads %s the harness lacks" %
             sorted(set(names) - set(WORKLOADS)))
    for workload in WORKLOADS:
        check_run(workload, 0, end_to_end)
        check_run(workload, 1, per_layer)
    print("selftest: all workloads ok")


if __name__ == "__main__":
    main()
