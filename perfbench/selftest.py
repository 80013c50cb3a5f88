#!/usr/bin/env python3
"""Steadiness self-test of the benchmark, on smoke-sized inputs.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json: two untraced runs on the same seed
must print identical output digests and identical minor_words_per_chunk,
and a traced run must reproduce Protocol.run's digest (fidelity).  Every
metric BENCHMARK.json names must be printed with its unit, and the result
line must have exactly the keys correct, attempted, failed and metrics.
Exits 1 on the first failure.
"""

import json
import subprocess
import sys

SEED = "7"


def run(workload, trace):
    p = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload, "--seed", SEED,
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or len(lines) < 2:
        sys.exit("FAIL %s trace=%d: exit %d\n%s" % (workload, trace, p.returncode, p.stderr))
    return json.loads(lines[-2]), json.loads(lines[-1])


def check(cond, msg):
    if not cond:
        sys.exit("FAIL " + msg)


def check_metrics(workload, result, wanted):
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          "%s: result keys %s" % (workload, sorted(result)))
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          "%s: output check failed: %s" % (workload, {k: result[k] for k in ("correct", "attempted", "failed")}))
    for m in wanted:
        got = result["metrics"].get(m["name"])
        check(got is not None, "%s: metric %s not printed" % (workload, m["name"]))
        check(got["unit"] == m["unit"], "%s: metric %s unit %r, expected %r"
              % (workload, m["name"], got["unit"], m["unit"]))


def main():
    bench = json.load(open("BENCHMARK.json"))
    for w in bench["workloads"]:
        name = w["name"]
        d1, r1 = run(name, 0)
        d2, r2 = run(name, 0)
        check_metrics(name, r1, bench["end_to_end"])
        check(d1["digest"] == d2["digest"],
              "%s: digests differ across repeats: %s %s" % (name, d1["digest"], d2["digest"]))
        mw1 = r1["metrics"]["minor_words_per_chunk"]["value"]
        mw2 = r2["metrics"]["minor_words_per_chunk"]["value"]
        check(mw1 == mw2, "%s: minor_words_per_chunk differs across repeats: %r %r" % (name, mw1, mw2))
        dt, rt = run(name, 1)
        check(dt["fidelity"], "%s: traced assembly diverged from Protocol.run" % name)
        check_metrics(name, rt, bench["per_layer"])
        print("ok %s digest %s minor_words_per_chunk %.3f" % (name, d1["digest"], mw1))
    print("selftest passed")


if __name__ == "__main__":
    main()
