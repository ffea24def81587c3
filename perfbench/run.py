#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Builds perfbench/ (which pulls in the
repository's libraries from source) into .bench_build/, runs the
measurement helpers' self-tests, then runs one workload and forwards its
output.  The last line of standard output is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1, the
per-layer ones (spans go to .bench_out/spans-<workload>.csv).  Exits
non-zero, printing no result, when the build, the self-tests or the run
fail.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def run(cmd, timeout, capture=False):
    """Run `cmd` to completion (killing it on timeout); returns (code, stdout)."""
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"run.py: {cmd[0]} timed out after {timeout} s")
        return 1, ""
    return proc.returncode, out or ""


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        code, _ = run(
            ["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            BUILD_TIMEOUT_S,
        )
        if code != 0:
            return False
    code, _ = run(
        ["cmake", "--build", BUILD, "-j4", "--target", "perfbench", "perfbench_selftest"],
        BUILD_TIMEOUT_S,
    )
    return code == 0


def valid_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return False
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return False
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    return set(result["metrics"]) == wanted


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not build():
        log("run.py: build failed")
        return 1
    code, _ = run([os.path.join(BUILD, "perfbench_selftest")], RUN_TIMEOUT_S)
    if code != 0:
        log("run.py: self-tests failed")
        return 1

    code, out = run(
        [
            os.path.join(BUILD, "perfbench"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--out-dir", OUT,
        ],
        RUN_TIMEOUT_S,
        capture=True,
    )
    lines = out.rstrip("\n").split("\n")
    if code != 0 or not valid_result(lines[-1], args.trace):
        sys.stderr.write(out)
        log(f"run.py: {args.workload} run failed (exit {code})")
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
