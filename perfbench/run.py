#!/usr/bin/env python3
"""Wall-bounded native benchmark of the ThreadScan reproduction.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload hash-churn --seed 1 --seconds 10 --trace 0

Workloads: list-read, hash-churn, hash-leaky (see BENCHMARK.json).  The
script builds perfbench/tsperf.exe with dune, runs it, and passes its
output through.  The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}.  With --trace 1 the traced
trials' spans are written to _perfbench/.

Exits non-zero without printing a result when the checkout is incomplete,
the build fails, or the run fails or overruns its time limit.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "tsperf.exe")
# What a checkout must hold for the benchmark to build the program.
REQUIRED = ["dune-project", "lib/par/runtime.ml", "lib/core/threadscan.ml", "perfbench/dune"]


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def commit_id():
    """The git commit, or a digest of the sources when not in a git checkout."""
    if os.path.exists(".git"):
        try:
            out = subprocess.run(
                ["git", "rev-parse", "--short=12", "HEAD"],
                capture_output=True, text=True, timeout=10,
            )
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = p.parse_args()

    missing = [f for f in REQUIRED if not os.path.isfile(f)]
    if missing:
        fail("not a source checkout (missing %s); run from the repository root"
             % ", ".join(missing), 2)

    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/tsperf.exe"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e, 3)
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        fail("build failed", 3)

    cmd = [
        EXE, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--commit", commit_id(),
    ]
    # Its own session, so a timeout takes down the per-trial processes too.
    run = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = run.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(run.pid, signal.SIGKILL)
        run.communicate()
        fail("run exceeded %ds" % RUN_TIMEOUT_S, 4)
    if run.returncode != 0:
        sys.stderr.write(out)
        fail("run failed (exit %d)" % run.returncode, 4)
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
