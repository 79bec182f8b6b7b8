#!/usr/bin/env python3
"""Build and run the repository's benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload solve|sweep|serve --seed N \\
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test [--seconds S]

The first form builds perfbench/main.exe and the serving daemon from
source with dune, then runs one benchmark workload. Its last stdout line
is the result object {"correct", "attempted", "failed", "metrics"}; the
exit status is non-zero when the build fails or any answer is wrong.

--self-test runs every workload traced, twice, at the default seed and
checks that the exact counters repeat bit for bit.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
WORKLOADS = ("solve", "sweep", "serve")

# A later claim is made on DEFAULT_SEED and re-checked on HELD_OUT_SEED,
# which no one tunes against.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

RUN_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("no dune project here; run from the repository root")
    # The dune cache lives outside the checkout; keep the build inside it.
    cmd = ["dune", "build", "--root", ".", "--cache=disabled",
           "perfbench/main.exe", "bin/dcn_served.exe"]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        fail("cannot run dune: %s" % e)
    if done.returncode != 0:
        fail("build failed")


def source_id():
    """The commit when this is a git checkout, else a digest of the sources."""
    if os.path.isdir(".git"):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha256()
    for top in ("dune-project", "lib", "bin", "perfbench"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "sources-sha256:" + h.hexdigest()[:16]


def stop_group(pgid):
    """Kill whatever the benchmark left in its process group, and wait."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(200):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_benchmark(workload, seed, seconds, trace, commit, capture=False):
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--commit", commit]
    proc = subprocess.Popen(cmd, start_new_session=True,
                            stdout=subprocess.PIPE if capture else None,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.wait()
        fail("%s run exceeded %d s" % (workload, RUN_TIMEOUT_S))
    finally:
        stop_group(proc.pid)
    return proc.returncode, out


def report_of(out):
    for line in out.splitlines():
        if line.startswith("perfbench-report "):
            return json.loads(line[len("perfbench-report "):])
    return None


def self_test(seconds, commit):
    ok = True
    for workload in WORKLOADS:
        runs = []
        for _ in range(2):
            code, out = run_benchmark(workload, DEFAULT_SEED, seconds, True,
                                      commit, capture=True)
            report = report_of(out)
            if code != 0 or report is None:
                print("%s: run failed (exit %d)" % (workload, code))
                ok = False
                break
            runs.append(report["exact_counters"])
        if len(runs) < 2:
            continue
        diffs = [k for k in runs[0] if runs[0][k] != runs[1][k]]
        print("%s: %s  %s" % (workload, "ok" if not diffs else "DIFFERS",
                              json.dumps(runs[0], sort_keys=True)))
        for k in diffs:
            print("  %s: %s vs %s" % (k, runs[0][k], runs[1][k]))
        ok = ok and not diffs
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    if not a.self_test and a.workload is None:
        fail("--workload or --self-test is required")
    build()
    commit = source_id()
    if a.self_test:
        sys.exit(self_test(a.seconds, commit))
    code, _ = run_benchmark(a.workload, a.seed, a.seconds, a.trace == 1, commit)
    sys.exit(code)


if __name__ == "__main__":
    main()
