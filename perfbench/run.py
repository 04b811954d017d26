#!/usr/bin/env python3
"""Build and run the rwdom serving benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the repository root. The first call configures and builds
perfbench/ (a CMake package that compiles the rwdom sources of the parent
tree) in Release mode under $CARGO_TARGET_DIR, or .bench_build when that
is unset; later calls only rebuild what changed. Build output goes to
stderr, so the last line of stdout is the benchmark's JSON result.

--self-check runs the benchmark's own checks: a quick run of every
workload with and without tracing must print every metric BENCHMARK.json
names, with its unit, and a run against a deliberately corrupted
reference must report success_rate below 1.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(root, "perfbench"))


def build():
    """Configures (once) and builds the perfbench binary; returns its path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(step))
    return os.path.join(out, "perfbench")


def run_once(binary, workload, seed, seconds, trace, extra=()):
    """Runs one benchmark invocation; returns (stdout, parsed last line)."""
    work_dir = os.path.join(build_dir(), "work")
    os.makedirs(work_dir, exist_ok=True)
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--work_dir", work_dir, *extra]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise RuntimeError("perfbench exited with %d" % done.returncode)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("perfbench printed nothing")
    return done.stdout, json.loads(lines[-1])


def self_check(binary):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    problems = []

    def expect_metrics(result, wanted, label):
        metrics = result.get("metrics", {})
        for metric in wanted:
            got = metrics.get(metric["name"])
            if got is None:
                problems.append("%s: missing %s" % (label, metric["name"]))
            elif got.get("unit") != metric["unit"]:
                problems.append("%s: %s has unit %r, want %r" % (
                    label, metric["name"], got.get("unit"), metric["unit"]))
        extra = set(metrics) - {m["name"] for m in wanted}
        if extra:
            problems.append("%s: unlisted metrics %s" % (label, sorted(extra)))

    for workload in spec["workloads"]:
        name = workload["name"]
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            label = "%s trace=%d" % (name, trace)
            text, result = run_once(binary, name, 1, 2, trace)
            sys.stderr.write(text)
            expect_metrics(result, wanted, label)
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s: responses failed the replay" % label)
        _, corrupt = run_once(binary, name, 1, 2, 0,
                              ("--corrupt_reference", "1"))
        rate = corrupt["metrics"]["success_rate"]["value"]
        if rate >= 1.0 or corrupt["correct"]:
            problems.append("%s: corrupted reference still passed "
                            "(success_rate=%s)" % (name, rate))
    for problem in problems:
        print("FAIL", problem)
    print("self-check:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and not args.workload:
        parser.error("--workload is required")
    try:
        binary = build()
        if args.self_check:
            return self_check(binary)
        text, _ = run_once(binary, args.workload, args.seed, args.seconds,
                           args.trace)
    except (RuntimeError, OSError, ValueError,
            subprocess.TimeoutExpired) as error:
        print("perfbench: %s" % error, file=sys.stderr)
        return 1
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
