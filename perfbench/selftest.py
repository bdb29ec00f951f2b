#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py [--seconds 6]

Runs every workload of BENCHMARK.json once untraced and once traced, for a
short time, through perfbench/run.py, and checks that:
  * each run exits 0 and its last line is the result object, with the
    output checks passed and every metric BENCHMARK.json names reported in
    its unit (end-to-end untraced, per-layer traced);
  * end-to-end metrics are never 0;
  * serve_tcp reads take exactly one multi-get RPC per node touched.
Every serving run also feeds its oracle a response with one flipped bit and
fails if the oracle accepts it, so a passing run proves the check has teeth.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", str(seconds), "--trace",
           str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        return None, "exit code %d" % proc.returncode
    return json.loads(lines[-1]), None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, default=6)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            label = "%s trace=%d" % (workload, trace)
            result, error = run(workload, args.seconds, trace)
            if result is None:
                problems.append("%s: %s" % (label, error))
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("%s: unexpected keys %s" % (label, sorted(result)))
            if not result["correct"]:
                problems.append("%s: output checks failed" % label)
            if result["attempted"] < 1:
                problems.append("%s: nothing attempted" % label)
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            for metric in wanted:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append("%s: %s missing or not in %s" %
                                    (label, metric["name"], metric["unit"]))
                elif not trace and got["value"] == 0:
                    problems.append("%s: %s is 0" % (label, metric["name"]))
            if workload == "serve_tcp" and trace:
                ratio = result["metrics"]["multiget.rpcs_per_read"]["value"]
                if ratio != 1.0:
                    problems.append("%s: multiget.rpcs_per_read is %r, not 1.0"
                                    % (label, ratio))
            print("%-22s ok=%s attempted=%d failed=%d" %
                  (label, result["correct"], result["attempted"],
                   result["failed"]))

    for problem in problems:
        print("FAIL " + problem)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
