#!/usr/bin/env python3
"""Self-test of the benchmark's own checks. Run from the root of a checkout:

    python3 perfbench/selftest.py [--seed N]

1. Each workload is run with one expected value perturbed
   (--inject-mismatch); its output check must fire: non-zero exit,
   "correct": false, at least one failed op.
2. Each workload is run twice per mode at one seed, in separate processes.
   Every virtual-time metric and per-layer count must be identical (host
   metrics are exempt), and both runs must pass their checks, including
   the traced split closing exactly for every attributed root.
3. The workloads isolate layers as designed: no stream chunks on
   rpc_small, chunks on hdfs_ingest, socket receive time on hbase_mixed.
Exits 0 only if every check holds.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("rpc_small", "hdfs_ingest", "hbase_mixed")


def run(workload, seed, trace, inject=False):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    if inject:
        cmd.append("--inject-mismatch")
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = res.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return res.returncode, result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=11)
    args = ap.parse_args()
    with open(os.path.join(HERE, "design.json")) as f:
        design = json.load(f)
    kinds = {m["name"]: m["kind"]
             for group in design["metrics"].values() for m in group}
    failures = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            failures.append(what)

    for w in WORKLOADS:
        code, result = run(w, args.seed, 0, inject=True)
        expect(code != 0 and result is not None and result["correct"] is False
               and result["failed"] >= 1,
               f"{w}: a wrong expectation makes the check fire (exit {code})")

    per_layer = {}
    for w in WORKLOADS:
        for trace in (0, 1):
            (c1, r1), (c2, r2) = run(w, args.seed, trace), run(w, args.seed, trace)
            complete = r1 is not None and r2 is not None
            expect(c1 == 0 and c2 == 0 and complete and r1["correct"] and r2["correct"],
                   f"{w} --trace {trace}: both runs pass their checks")
            if not complete:
                continue
            differ = [n for n, m in r1["metrics"].items()
                      if kinds[n] != "host" and m["value"] != r2["metrics"][n]["value"]]
            expect(not differ, f"{w} --trace {trace}: virtual metrics and counts identical"
                               f" across processes {differ or ''}")
            if trace == 1:
                per_layer[w] = {n: m["value"] for n, m in r1["metrics"].items()}

    if len(per_layer) == len(WORKLOADS):
        expect(per_layer["rpc_small"]["stream.chunks_per_op"] == 0,
               "rpc_small bypasses the stream plane (stream.chunks_per_op == 0)")
        expect(per_layer["hdfs_ingest"]["stream.chunks_per_op"] > 0,
               "hdfs_ingest streams (stream.chunks_per_op > 0)")
        expect(per_layer["hbase_mixed"]["net.recv_us"] > 0,
               "hbase_mixed Get/Put roots show socket receive time (net.recv_us > 0)")

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
