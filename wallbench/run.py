#!/usr/bin/env python3
"""Wall-clock benchmark of the replicated middleware.

Builds the benchmark binary and screp_server from the repository's
sources (CMake, into .bench_build/), runs one workload, prints every
metric by name with its unit, and ends with one JSON result line:

    python3 wallbench/run.py --workload micro-read --seed 1 --seconds 10 --trace 0

With --trace 0 the result line carries the end-to-end metrics listed in
BENCHMARK.json; with --trace 1 the per-layer ones (a per-layer metric that
does not apply to the workload reads 0 and is marked n/a in the table).
The exit code is 0 only when every output check passed.

    python3 wallbench/run.py --all [--seed N] [--seconds S]

runs every workload untraced and traced and prints all tables;

    python3 wallbench/run.py --self-test

checks the benchmark itself: known percentiles and traces, then a short
run of every workload in which each output check must catch its planted
defect.
"""

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "wallbench")
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "wallbench")
OUT_DIR = os.path.join(BUILD_ROOT, "wallbench-out")
BINARY = os.path.join(BUILD_DIR, "wallbench")
SERVER = os.path.join(BUILD_DIR, "screp_tools", "screp_server")
RUN_TIMEOUT_S = 170
# After a build the machine measures slow for a while (p50 latency about
# 2.5x on a 4-vCPU VM right after the 4-job build); measure after it has
# settled.
SETTLE_AFTER_BUILD_S = 30
# Planted defects every run must catch: dropped ack, altered replica row
# (in-process only) and removed child span (traced runs).
PLANTED_INPROC = 3
PLANTED_TCP = 2


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def mtime(path):
    return os.path.getmtime(path) if os.path.exists(path) else None


def build():
    """Configures (once) and builds the benchmark binary and the server."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    before = (mtime(BINARY), mtime(SERVER))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j4", "--target",
                  "wallbench", "screp_server"])
    for cmd in steps:
        # Build chatter goes to stderr; stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise SystemExit("wallbench: build failed: " + " ".join(cmd))
    if (mtime(BINARY), mtime(SERVER)) != before:
        log("wallbench: built; settling %d s before measuring"
            % SETTLE_AFTER_BUILD_S)
        time.sleep(SETTLE_AFTER_BUILD_S)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_binary(workload, seed, seconds, trace):
    """One run of the benchmark binary; returns its parsed JSON report."""
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", OUT_DIR, "--server", SERVER]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit("wallbench: %s did not finish in %d s"
                         % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit("wallbench: the benchmark binary printed no report (exit %d)"
                         % proc.returncode)
    return json.loads(lines[-1])


def result_line(report, spec, trace):
    """The contract's result object: the listed metrics only."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    measured = report["metrics"]
    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None:
            if not trace:
                raise SystemExit("wallbench: %s did not measure %s"
                                 % (report["workload"], m["name"]))
            got = {"value": 0, "unit": m["unit"]}  # does not apply here
        if got["unit"] != m["unit"]:
            raise SystemExit("wallbench: %s measured in %s, listed in %s"
                             % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return {"correct": report["correct"], "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def print_table(report, spec, trace):
    kind = "per-layer (traced run)" if trace else "end-to-end (untraced run)"
    print("== %s: %s; %d txns attempted, %d failed"
          % (report["workload"], kind, report["attempted"], report["failed"]))
    for check in report["checks"]:
        print("  check ok:   " + check)
    for failure in report["failures"]:
        print("  CHECK FAILED: " + failure)
    listed = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    measured = report["metrics"]
    for name, m in measured.items():
        print("  %-44s %16.4f %-6s n=%d%s"
              % (name, m["value"], m["unit"], m["samples"],
                 "" if name in listed else "  (not in BENCHMARK.json)"))
    if trace:
        for m in spec["per_layer"]:
            if m["name"] not in measured:
                print("  %-44s %16s %-6s" % (m["name"], "n/a", m["unit"]))


def one(args, spec):
    report = run_binary(args.workload, args.seed, args.seconds, args.trace)
    print_table(report, spec, args.trace)
    print(json.dumps(result_line(report, spec, args.trace)), flush=True)
    return 0 if report["correct"] else 1


def run_all(args, spec):
    ok = True
    for w in spec["workloads"]:
        for trace in (0, 1):
            report = run_binary(w["name"], args.seed, args.seconds, trace)
            print_table(report, spec, trace)
            ok = ok and report["correct"]
    return 0 if ok else 1


def self_test(spec):
    if subprocess.run([BINARY, "--self-test"]).returncode != 0:
        return 1
    ok = True
    for w in spec["workloads"]:
        report = run_binary(w["name"], 1, 2, 1)
        caught = sum(c.startswith("planted defect caught")
                     for c in report["checks"])
        want = PLANTED_TCP if w["name"] == "kv-tcp" else PLANTED_INPROC
        good = report["correct"] and caught == want
        log("%s: %s: %d of %d planted defects caught, %d check failures"
            % ("ok  " if good else "FAIL", w["name"], caught, want,
               len(report["failures"])))
        ok = ok and good
    log("self-test: " + ("OK" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if not (args.all or args.self_test) and args.workload not in names:
        parser.error("--workload must be one of " + ", ".join(names))
    build()
    if args.self_test:
        return self_test(spec)
    if args.all:
        return run_all(args, spec)
    return one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
