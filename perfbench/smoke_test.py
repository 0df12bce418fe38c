#!/usr/bin/env python3
"""Smoke test of the repository benchmark: runs every workload BENCHMARK.json
lists at a tiny size, untraced and traced, and fails unless each run exits
0, passes its checks with no failed operation, and reports every metric
BENCHMARK.json names for that mode with a numeric value and its unit.

  python3 perfbench/smoke_test.py
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    problems = []
    for workload in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = "%s --trace %d" % (workload["name"], trace)
            run = subprocess.run(
                [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                 "--workload", workload["name"], "--seed", "1",
                 "--seconds", "1", "--trace", str(trace), "--tiny"],
                capture_output=True, text=True, timeout=900)
            if run.returncode != 0:
                problems.append("%s: exit %d\n%s" % (label, run.returncode,
                                                     run.stderr[-2000:]))
                continue
            result = json.loads(run.stdout.strip().split("\n")[-1])
            if sorted(result) != ["attempted", "correct", "failed",
                                  "metrics"]:
                problems.append("%s: result keys %s" % (label, sorted(result)))
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s: correct=%s failed=%s" % (
                    label, result["correct"], result["failed"]))
            for metric in spec[key]:
                got = result["metrics"].get(metric["name"], {})
                if (not isinstance(got.get("value"), (int, float))
                        or got.get("unit") != metric["unit"]):
                    problems.append("%s: metric %s reads %r" % (
                        label, metric["name"], got))
            print("ok  %s: %d metrics" % (label, len(result["metrics"])))
    for problem in problems:
        print("FAIL " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
