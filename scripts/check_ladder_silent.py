#!/usr/bin/env python3
"""Fail unless a fault-free benchmark run left the degradation ladder silent.

ThreadScan's crash/stall ladder (docs/FAULTS.md) exists for crashed or
stalled peers.  With no fault plan, every signalled thread acks, so a
traced perfbench run must report zero ack timeouts, suspects and reaps.

Usage:
    python3 perfbench/run.py --workload hash-churn --seed 1 --seconds 2 --trace 1 \\
        | python3 scripts/check_ladder_silent.py
    python3 scripts/check_ladder_silent.py run-output.txt

Reads the run's output (stdin or FILE), takes its last line as the result
object, and exits 1 if the run was not correct, a counter is missing (an
untraced run), or any counter is non-zero.
"""

import json
import sys

COUNTERS = ["core.ack_timeouts", "core.suspects", "core.reaps"]


def main():
    if len(sys.argv) > 2:
        sys.exit(__doc__)
    src = open(sys.argv[1]) if len(sys.argv) == 2 else sys.stdin
    lines = [l for l in src.read().splitlines() if l.strip()]
    if not lines:
        sys.exit("check_ladder_silent: empty run output")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        sys.exit("check_ladder_silent: last line is not the result object: %s" % e)
    metrics = result.get("metrics", {})
    bad = []
    if result.get("correct") is not True:
        bad.append("run not correct")
    for name in COUNTERS:
        if name not in metrics:
            bad.append("%s missing (run with --trace 1)" % name)
            continue
        value = metrics[name]["value"]
        print("%-20s %g" % (name, value))
        if value != 0:
            bad.append("%s = %g" % (name, value))
    if bad:
        print("ladder fired on a fault-free run: " + "; ".join(bad))
        sys.exit(1)
    print("ladder silent: no ack timeouts, suspects or reaps")


if __name__ == "__main__":
    main()
