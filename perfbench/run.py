#!/usr/bin/env python3
"""Serving benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
        Builds the program and the benchmark binary from source (into .bench_build at
        the root of the checkout), runs one measurement, and passes the
        binary's output through: the last line is the JSON result.

    python3 perfbench/run.py --self-test
        Runs a smoke size of every workload, traced and untraced, and checks
        that every metric BENCHMARK.json names is present, finite and carries
        its unit.

    python3 perfbench/run.py --spread N [--workload <name>] [--seconds <s>] [--trace 0|1]
        Runs each workload N times with seeds 1..N and prints the median,
        quartiles and spread (IQR / median) of every metric, next to the
        metric's bound where it has one.

Run it from the root of the checkout. Exit code 0 only when every run was
correct.
"""

import argparse
import fcntl
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures once and builds the benchmark binary; output goes to stderr."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                      "-j", jobs])
        for step in steps:
            result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
            if result.returncode != 0:
                log("perfbench: build step failed: " + " ".join(step))
                return False
    return True


def run_binary(args, passthrough):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    command = [BINARY] + args
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                          cwd=ROOT) as proc:
        lines = []
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
            return 1, []
        for line in out.splitlines():
            lines.append(line)
            if passthrough:
                print(line)
        return proc.returncode, lines


def result_of(lines):
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def load_definition():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def self_test():
    spec = load_definition()
    ok = True
    for workload in spec["workloads"]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            code, lines = run_binary(
                ["--workload", workload["name"], "--seed", "1", "--seconds", "2",
                 "--trace", trace, "--smoke"], passthrough=False)
            result = result_of(lines)
            problems = []
            if code != 0:
                problems.append("exit code %d" % code)
            if result is None:
                problems.append("no JSON result line")
            else:
                if result.get("correct") is not True:
                    problems.append("correct is not true")
                metrics = result.get("metrics", {})
                for metric in spec[key]:
                    got = metrics.get(metric["name"])
                    if got is None:
                        problems.append("missing " + metric["name"])
                    elif got.get("unit") != metric["unit"]:
                        problems.append("%s unit %r" % (metric["name"], got.get("unit")))
                    elif not (isinstance(got.get("value"), (int, float))
                              and math.isfinite(got["value"])):
                        problems.append("%s not finite" % metric["name"])
                extra = set(metrics) - {m["name"] for m in spec[key]}
                if extra:
                    problems.append("unlisted metrics: " + ", ".join(sorted(extra)))
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print("self-test %-16s trace=%s %s" % (workload["name"], trace, status))
            ok = ok and not problems
    return 0 if ok else 1


def spread(n, names, seconds, trace):
    spec = load_definition()
    key = "per_layer" if trace == "1" else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in spec[key]}
    ok = True
    for name in names:
        values = {}
        for seed in range(1, n + 1):
            code, lines = run_binary(
                ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", trace], passthrough=False)
            result = result_of(lines)
            if code != 0 or result is None or not result.get("correct"):
                print("%s seed %d: FAILED (exit %d)" % (name, seed, code))
                ok = False
                continue
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
        print("\n%s: %d runs, seconds=%s, trace=%s" % (name, n, seconds, trace))
        print("  %-32s %12s %12s %12s %8s %8s" % ("metric", "median", "q1", "q3",
                                                 "spread", "bound"))
        for metric, series in values.items():
            if len(series) < 2:
                continue
            q1, med, q3 = statistics.quantiles(series, n=4)
            rel = (q3 - q1) / abs(med) if med else float("inf")
            bound = bounds.get(metric)
            flag = ""
            if bound is not None and rel >= bound / 3:
                flag = "  <-- above bound/3"
            print("  %-32s %12.6g %12.6g %12.6g %8.4f %8s%s" % (
                metric, med, q1, q3, rel, "-" if bound is None else bound, flag))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--spread", type=int, default=0)
    options = parser.parse_args()

    if not build():
        return 1
    if options.self_test:
        return self_test()
    if options.spread > 0:
        names = ([options.workload] if options.workload
                 else [w["name"] for w in load_definition()["workloads"]])
        return spread(options.spread, names, options.seconds, options.trace)
    if not options.workload:
        parser.error("--workload is required")
    code, _ = run_binary(["--workload", options.workload, "--seed", options.seed,
                          "--seconds", options.seconds, "--trace", options.trace],
                         passthrough=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
