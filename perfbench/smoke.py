#!/usr/bin/env python3
"""Smoke test for the benchmark: every workload at a tiny size.

Run from the root of a checkout:

    python3 perfbench/smoke.py

For each workload in BENCHMARK.json and each of the seeds 1601 and 3601
(the Synth-16 and Sep-Cab preset seeds) and one held-out seed, it runs
perfbench/run.py with --tiny, untraced and traced, and checks that

  * the last line is the result object, every correctness check passed,
    and the metrics are exactly the declared end-to-end (untraced) or
    per-layer (traced) names, each with its declared unit;
  * a second run of the same seed prints identical inputs digest and
    simulator and daemon fingerprints;
  * a different seed changes the inputs digest.

Exits 0 and prints "smoke ok" when every check holds.
"""

import json
import os
import re
import subprocess
import sys

SEEDS = [1601, 3601, 977]
FINGERPRINT = re.compile(r"(?:inputs |fingerprint=)([0-9a-f]{32})")


def run(workload, seed, trace):
    out = subprocess.run(
        ["python3", os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=600,
    )
    if out.returncode != 0:
        raise AssertionError("%s seed %d trace %d exited %d:\n%s"
                             % (workload, seed, trace, out.returncode, out.stderr))
    lines = out.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def check_result(result, declared, what):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError("%s: result keys %s" % (what, sorted(result)))
    if result["correct"] is not True or result["failed"] != 0:
        raise AssertionError("%s: %d of %d operations failed"
                             % (what, result["failed"], result["attempted"]))
    if result["attempted"] < 1:
        raise AssertionError("%s: nothing attempted" % what)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(got) & set(want) if got[k] != want[k])
        raise AssertionError("%s: missing %s, undeclared %s, wrong unit %s"
                             % (what, missing, extra, wrong))
    for k, v in result["metrics"].items():
        if not isinstance(v["value"], (int, float)):
            raise AssertionError("%s: %s is not a number" % (what, k))


def digests(context):
    return [m for line in context for m in FINGERPRINT.findall(line)]


def main():
    spec = json.load(open("BENCHMARK.json"))
    for wl in spec["workloads"]:
        name = wl["name"]
        inputs = {}
        for seed in SEEDS:
            ctx, res = run(name, seed, 0)
            check_result(res, spec["end_to_end"], "%s seed %d" % (name, seed))
            again, _ = run(name, seed, 0)
            if digests(ctx) != digests(again):
                raise AssertionError("%s seed %d: fingerprints differ between "
                                     "two runs" % (name, seed))
            inputs[seed] = digests(ctx)[0]
            _, res = run(name, seed, 1)
            check_result(res, spec["per_layer"], "%s seed %d traced" % (name, seed))
        if len(set(inputs.values())) != len(SEEDS):
            raise AssertionError("%s: different seeds gave the same inputs" % name)
        print("%s: ok (seeds %s)" % (name, ", ".join(map(str, SEEDS))))
    print("smoke ok")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as e:
        print("smoke FAILED: %s" % e)
        sys.exit(1)
