#!/usr/bin/env python3
"""Check that the benchmark's deterministic work counters repeat.

Run from the root of a checkout:

    python3 perfbench/determinism.py [--seconds 4] [--seeds 1,2]

For each workload, runs the benchmark twice with the first seed and once
with the second, and compares the "counters" object of the records (the
line starting with "# record"). The counters of the two same-seed runs
must be identical. For serve-churn they must also differ under
the other seed; solve-cold runs a fixed corpus, so its counters are the
same under every seed and only repetition is checked. Exits non-zero on a
mismatch.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def counters(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=300)
    if out.returncode != 0:
        sys.exit("%s seed %d: benchmark exited %d\n%s" % (workload, seed, out.returncode, out.stderr))
    for line in out.stdout.splitlines():
        if line.startswith("# record "):
            record = json.loads(line[len("# record "):])
            if not record["correct"]:
                sys.exit("%s seed %d: run not correct" % (workload, seed))
            return record["counters"]
    sys.exit("%s seed %d: no record line" % (workload, seed))


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--seconds", type=int, default=4)
    p.add_argument("--seeds", default="1,2")
    args = p.parse_args()
    a, b = (int(s) for s in args.seeds.split(","))
    bad = False
    for workload in ("solve-cold", "serve-churn"):
        first = counters(workload, a, args.seconds)
        again = counters(workload, a, args.seconds)
        other = counters(workload, b, args.seconds)
        print("%s: %s" % (workload, ", ".join("%s=%d" % kv for kv in first.items())))
        if first != again:
            bad = True
            diff = [k for k in first if first[k] != again.get(k)]
            print("  FAIL: seed %d repeated differently: %s" % (a, diff))
        else:
            print("  seed %d twice: identical" % a)
        differs = first != other
        if workload == "solve-cold":
            print("  seed %d: %s (fixed corpus, seed sets the order only)"
                  % (b, "differs" if differs else "identical"))
        elif differs:
            print("  seed %d: differs" % b)
        else:
            bad = True
            print("  FAIL: seed %d gave the same counters" % b)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
