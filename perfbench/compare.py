#!/usr/bin/env python3
"""Compare two sets of benchmark runs, refusing mismatched environments.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the saved stdout of runs (one file per run, any
name).  Runs are grouped by workload and trace mode; for each end-to-end
metric the medians of the two sets are compared against the bound in
BENCHMARK.json.  Results whose environment stamps differ (build profile,
OCaml version, core count, workload sizes, run length) are not compared:
the script exits 3 and names the difference.  Exit 1 when a metric got
worse by more than its bound, 0 otherwise.
"""

import json
import os
import statistics
import sys

STAMP_KEYS = ("profile", "ocaml", "nproc", "sizes", "seconds", "smoke")


def load(directory):
    runs = {}
    for f in sorted(os.listdir(directory)):
        lines = open(os.path.join(directory, f)).read().strip().splitlines()
        try:
            detail, result = json.loads(lines[-2]), json.loads(lines[-1])
            st = detail["stamp"]
        except (IndexError, ValueError, KeyError, TypeError):
            continue  # not the saved stdout of a run
        runs.setdefault((st["workload"], st["trace"]), []).append((st, result))
    return runs


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    bench = json.load(open("BENCHMARK.json"))
    base, new = load(sys.argv[1]), load(sys.argv[2])
    for key in sorted(set(base) & set(new)):
        stamps = {json.dumps({k: st[k] for k in STAMP_KEYS}, sort_keys=True)
                  for st, _ in base[key] + new[key]}
        if len(stamps) > 1:
            print("refusing to compare %s: stamps differ:\n  %s" % (key[0], "\n  ".join(sorted(stamps))))
            sys.exit(3)
    worse = False
    for key in sorted(set(base) & set(new)):
        if key[1] != 0:
            continue
        print("%s (%d base runs, %d new runs)" % (key[0], len(base[key]), len(new[key])))
        for m in bench["end_to_end"]:
            b = statistics.median(r["metrics"][m["name"]]["value"] for _, r in base[key])
            n = statistics.median(r["metrics"][m["name"]]["value"] for _, r in new[key])
            change = (n - b) / b
            loss = -change if m["better"] == "higher" else change
            verdict = "WORSE" if loss > m["bound"] else "ok"
            worse = worse or verdict == "WORSE"
            print("  %-24s %14.6g -> %14.6g %s  %+7.2f%% (bound %.0f%%) %s"
                  % (m["name"], b, n, m["unit"], 100 * change, 100 * m["bound"], verdict))
    sys.exit(1 if worse else 0)


if __name__ == "__main__":
    main()
