#!/usr/bin/env python3
"""Self-test of the gpufi ledger's own contract and checks.

Usage (from the repository root):

    python3 ledger/selftest.py [contract] [counts] [tamper] [traced]

With no arguments every test runs (a few minutes). Each test drives
ledger/run.py with short runs:

  contract  an untraced run prints the JSON result shape with positive
            end-to-end metrics (run.py checks the names and units against
            BENCHMARK.json), and no operation fails;
  counts    the exact counts repeat bit for bit across two runs of one seed,
            on both workloads;
  tamper    a corrupted served payload byte and a corrupted saved DB byte
            each raise the failed count (correct becomes false);
  traced    a traced run prints every per-layer metric BENCHMARK.json lists
            (checked by run.py), and no operation fails.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "ledger", "run.py")


def run(workload, seed, seconds=1, trace="0", tamper=None):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", trace]
    if tamper:
        cmd += ["--tamper", tamper]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, timeout=900)
    lines = p.stdout.decode().strip().splitlines()
    if p.returncode != 0 or not lines:
        raise AssertionError("%s run failed (exit %d): %s" % (
            workload, p.returncode, p.stderr.decode()[-2000:]))
    counts = [l for l in lines if l.startswith("count ")]
    return json.loads(lines[-1]), counts


def test_contract():
    for w in ("served", "two_level"):
        result, _ = run(w, 7)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= 1 and result["failed"] == 0, result
        assert result["correct"] is True
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_counts():
    for w in ("served", "two_level"):
        _, a = run(w, 5)
        _, b = run(w, 5)
        assert a and a == b, (
            "%s counts differ between runs of one seed:\n%s" % (
                w, "\n".join(sorted(set(a) ^ set(b)))))


def test_tamper():
    for w, what in (("served", "payload"), ("two_level", "db")):
        result, _ = run(w, 3, tamper=what)
        assert result["failed"] > 0 and result["correct"] is False, (
            "tampered %s was not caught: %s" % (what, result))


def test_traced():
    result, _ = run("served", 9, seconds=2, trace="1")
    assert result["failed"] == 0, result


TESTS = {"contract": test_contract, "counts": test_counts,
         "tamper": test_tamper, "traced": test_traced}


def main():
    names = sys.argv[1:] or list(TESTS)
    failed = 0
    for name in names:
        if name not in TESTS:
            print("unknown test %s (have: %s)" % (name, " ".join(TESTS)))
            return 2
        try:
            TESTS[name]()
            print("PASS %s" % name, flush=True)
        except AssertionError as e:
            failed += 1
            print("FAIL %s: %s" % (name, e), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
