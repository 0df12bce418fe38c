#!/usr/bin/env python3
"""Repository benchmark: builds perfbench against this checkout's library
sources, runs one workload and prints its result.

  python3 perfbench/run.py --workload paper|serial --seed N --seconds S \\
      --trace 0|1 [--tiny]

Run it from anywhere; paths resolve against the checkout root. The build
goes to $CARGO_TARGET_DIR (default .bench_build) under the root, and the
run's durability directories and trace dumps to <build dir>/work. Every
line but the last is the run's own log: stage summaries, then a JSON line
with the host fingerprint, per-phase operation accounting, checks and
flags. The last line is the result: correct, attempted, failed and the
metrics BENCHMARK.json names — its end_to_end metrics under --trace 0, its
per_layer metrics under --trace 1. The exit status is non-zero, with no
result line, when the build fails, a correctness check fails, or a named
metric is missing or has another unit.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_group(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; on timeout kills the whole group
    (compilers under cmake included) and waits for it. Returns the exit
    code and captured stdout (None when not captured), or None on
    timeout."""
    proc = subprocess.Popen(cmd, process_group=0, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, None


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
    ]
    with open(log_path, "w") as log:
        for cmd in steps:
            rc, _ = run_group(cmd, BUILD_TIMEOUT_S, stdout=log,
                              stderr=subprocess.STDOUT)
            if rc != 0:
                log.flush()
                with open(log_path) as text:
                    sys.stderr.write(text.read()[-4000:])
                fail("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def source_id():
    """The commit when the checkout is a git work tree, otherwise a digest
    of the sources the benchmark builds."""
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0:
            return head.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, names in os.walk(path) for f in names)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as data:
                digest.update(data.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="run every stage at a tiny size (smoke test)")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(build_dir, "work"),
           "--commit", source_id()]
    if args.tiny:
        cmd.append("--tiny")
    rc, out = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True,
                        cwd=ROOT)
    if rc is None:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = out.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    sys.stdout.flush()
    if rc != 0:
        fail("run failed with exit code %d" % rc)

    result = json.loads(lines[-1])
    metrics = {}
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        if (got is None or not isinstance(got.get("value"), (int, float))
                or isinstance(got.get("value"), bool)):
            fail("metric %s has no value" % metric["name"])
        if got.get("unit") != metric["unit"]:
            fail("metric %s has unit %r, BENCHMARK.json says %r"
                 % (metric["name"], got.get("unit"), metric["unit"]))
        metrics[metric["name"]] = got
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
