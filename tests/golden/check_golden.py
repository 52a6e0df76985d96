#!/usr/bin/env python3
"""K=1 byte-identity check for the default-config experiment drivers.

Runs one driver with `--quick --bench-json=<driver>.bench.json` in a
scratch directory and compares its stdout and its BENCH JSON byte for
byte against the committed goldens in this directory.  The goldens pin
the single-lane certification path: a refactor of the certifier, the
system wiring or the transport must leave every default-config figure
exactly as it was.

Usage:
  check_golden.py --bin-dir build/bench --driver fig3_micro_throughput
  check_golden.py --bin-dir build/bench --regenerate   # all drivers

`--regenerate` rewrites the goldens from the given binaries; run it only
on a build of a commit whose output is known-good (see README.md).
"""

import argparse
import difflib
import os
import subprocess
import sys
import tempfile

DRIVERS = [
    "fig3_micro_throughput",
    "fig4_latency_breakdown",
    "fig6_sync_delay",
    "fig7_fixed_load",
    "saturation",
]

GOLDEN_DIR = os.path.dirname(os.path.abspath(__file__))


def run_driver(bin_dir, driver):
    """Returns (stdout bytes, bench json bytes) of one --quick run."""
    binary = os.path.abspath(os.path.join(bin_dir, driver))
    json_name = driver + ".bench.json"
    with tempfile.TemporaryDirectory(prefix="golden_") as work:
        proc = subprocess.run([binary, "--quick", "--bench-json=" + json_name],
                              cwd=work, stdout=subprocess.PIPE, check=False)
        if proc.returncode != 0:
            sys.exit(f"{driver}: exited with status {proc.returncode}")
        with open(os.path.join(work, json_name), "rb") as f:
            bench = f.read()
    return proc.stdout, bench


def golden_paths(driver):
    return (os.path.join(GOLDEN_DIR, driver + ".stdout"),
            os.path.join(GOLDEN_DIR, driver + ".bench.json"))


def report_diff(label, expected, actual):
    print(f"MISMATCH: {label}")
    diff = difflib.unified_diff(
        expected.decode(errors="replace").splitlines(),
        actual.decode(errors="replace").splitlines(),
        "golden", "fresh", lineterm="", n=1)
    for i, line in enumerate(diff):
        if i >= 40:
            print("... (diff truncated)")
            break
        print(line)


def check(bin_dir, driver):
    stdout, bench = run_driver(bin_dir, driver)
    ok = True
    for path, fresh in zip(golden_paths(driver), (stdout, bench)):
        with open(path, "rb") as f:
            expected = f.read()
        if fresh != expected:
            report_diff(os.path.basename(path), expected, fresh)
            ok = False
    if ok:
        print(f"{driver}: stdout and BENCH JSON identical to the goldens")
    return 0 if ok else 1


def regenerate(bin_dir, drivers):
    for driver in drivers:
        stdout, bench = run_driver(bin_dir, driver)
        for path, data in zip(golden_paths(driver), (stdout, bench)):
            with open(path, "wb") as f:
                f.write(data)
        print(f"{driver}: goldens rewritten")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bin-dir", required=True,
                        help="directory holding the bench driver binaries")
    parser.add_argument("--driver", choices=DRIVERS,
                        help="driver to check (default: all)")
    parser.add_argument("--regenerate", action="store_true",
                        help="rewrite the goldens instead of checking")
    args = parser.parse_args()
    drivers = [args.driver] if args.driver else DRIVERS
    if args.regenerate:
        return regenerate(args.bin_dir, drivers)
    return max(check(args.bin_dir, d) for d in drivers)


if __name__ == "__main__":
    sys.exit(main())
