#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Run from the repository root:

    python3 perfbench/smoke.py

Runs every workload in BENCHMARK.json for one second, untraced and
traced, and fails (exit 1) if a run fails, a correctness check fails,
the result object is malformed, or any metric named in BENCHMARK.json is
missing or carries the wrong unit.
"""

import json
import math
import subprocess
import sys


def check(bench, workload, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", "7",
                              "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
    if out.returncode != 0:
        return ["exit code %d" % out.returncode]
    lines = out.stdout.strip().split("\n")
    try:
        res = json.loads(lines[-1])
    except ValueError as e:
        return ["last line is not JSON: %s" % e]
    errors = []
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        errors.append("result keys %s" % sorted(res))
        return errors
    if res["correct"] is not True:
        errors.append("correct = %s" % res["correct"])
    if res["failed"] != 0 or res["attempted"] < 1:
        errors.append("attempted %s, failed %s" % (res["attempted"], res["failed"]))
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    got = res["metrics"]
    for m in wanted:
        v = got.get(m["name"])
        if v is None:
            errors.append("missing metric %s" % m["name"])
        elif v.get("unit") != m["unit"]:
            errors.append("%s unit %s, expected %s" % (m["name"], v.get("unit"), m["unit"]))
        elif not isinstance(v.get("value"), (int, float)) or not math.isfinite(v["value"]):
            errors.append("%s value %r" % (m["name"], v.get("value")))
    extra = set(got) - {m["name"] for m in wanted}
    if extra:
        errors.append("unlisted metrics %s" % sorted(extra))
    return errors


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    failures = 0
    for w in bench["workloads"]:
        for trace in (0, 1):
            errors = check(bench, w["name"], trace)
            status = "ok" if not errors else "FAIL: " + "; ".join(errors)
            print("%-12s trace=%d %s" % (w["name"], trace, status))
            failures += bool(errors)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
