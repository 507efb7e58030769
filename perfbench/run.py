#!/usr/bin/env python3
"""Repository benchmark: build the simulator from source, run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload rpc_small --seed 1 --seconds 20 --trace 0

Builds perfbench/ (which compiles ../src) with CMake into .bench_build/
(or $CARGO_TARGET_DIR), then runs the workload in its own process. The
workload binary checks every output, prints human-readable lines, and ends
with one JSON line {"correct", "attempted", "failed", "metrics"}. This
script checks that the JSON carries exactly the metrics design.json lists
for the mode (--trace 0: end-to-end, --trace 1: per-layer) and prints it
as its own last line. It exits non-zero, without a JSON line, if the build
fails or the output is malformed, and with the binary's code otherwise.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally. Returns the binary path."""
    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)  # keep compiler scratch inside the checkout
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr so stdout ends with the result only.
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env,
                             timeout=BUILD_TIMEOUT_S)
        if res.returncode != 0:
            raise RuntimeError(f"build step failed: {' '.join(cmd)}")
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--inject-mismatch", action="store_true",
                    help="self-test: perturb one expected value; the run must fail")
    args = ap.parse_args()

    with open(os.path.join(HERE, "design.json")) as f:
        design = json.load(f)
    if args.workload not in design["workloads"]:
        log(f"unknown workload {args.workload}")
        return 2
    key = "per_layer" if args.trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in design["metrics"][key]}

    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as e:
        log(str(e))
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.inject_mismatch:
        cmd.append("--inject-mismatch")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 2

    lines = out.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stdout.write(out)
        log(f"no result line (exit code {proc.returncode})")
        return proc.returncode or 2
    got = {n: m.get("unit") for n, m in result.get("metrics", {}).items()}
    if set(result) != {"correct", "attempted", "failed", "metrics"} or got != expected:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        log(f"result does not match design.json: missing {sorted(set(expected) - set(got))},"
            f" unexpected {sorted(set(got) - set(expected))}")
        return 2
    sys.stdout.write(out if out.endswith("\n") else out + "\n")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
