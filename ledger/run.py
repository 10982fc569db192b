#!/usr/bin/env python3
"""Run one gpufi ledger workload and print its metrics.

Usage (from the repository root):

    python3 ledger/run.py --workload two_level|served --seed N \
        --seconds S --trace 0|1 [--tamper payload|db]

Builds the ledger (and the gpufi libraries it links) from source into
.bench_build/ledger on first use, then runs it. Build output goes to
stderr; the last line of stdout is the ledger's JSON result. Exits non-zero
without a result when the sources are missing, the build fails, the run
fails, or the run's metrics differ from those BENCHMARK.json lists.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LEDGER = os.path.join(ROOT, "ledger")
BUILD = os.path.join(ROOT, ".bench_build", "ledger")
BINARY = os.path.join(BUILD, "gpufi_ledger")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("ledger/run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", LEDGER, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "gpufi_ledger",
                  "-j", jobs])
    for cmd in steps:
        try:
            subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                           check=True, timeout=BUILD_TIMEOUT_S)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
                OSError) as e:
            fail("build failed: %s" % e)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["two_level", "served"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--tamper", choices=["payload", "db"])
    args = ap.parse_args()

    for needed in ("src/CMakeLists.txt", "gpufi_data/syndromes.db"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("missing %s: run from a full gpufi checkout" % needed)
    build()

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.tamper:
        cmd += ["--tamper", args.tamper]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s run exceeded %d s" % (args.workload, RUN_TIMEOUT_S))
    lines = proc.stdout.decode().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("%s run failed (exit %d)" % (args.workload, proc.returncode))
    # BENCHMARK.json is the one list of metrics: a run that prints any other
    # set (a metric missing, renamed or with another unit) is no result.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        listed = json.load(f)["per_layer" if args.trace == "1"
                              else "end_to_end"]
    result = json.loads(lines[-1])
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in listed}
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if got != want:
        fail("metrics differ from BENCHMARK.json: missing %s, unlisted %s" % (
            sorted(set(want.items()) - set(got.items())),
            sorted(set(got.items()) - set(want.items()))))
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
