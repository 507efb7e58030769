#!/usr/bin/env bash
# Byte-identity oracle for behaviour-preserving refactors.
#
# Runs the same deterministic bench set from two build trees and cmp's
# every output pair: bench JSON, the resilience report, the chrome traces
# and each bench's stdout. The simulation is seeded and single-threaded,
# so any difference is a behaviour change, never noise.
#
# Usage: ci/identity_check.sh BUILD_A BUILD_B
#   BUILD_A, BUILD_B: CMake build trees holding bench/bench_* binaries
#   (e.g. the merge base and the change under review).
# Exits 0 when every pair is byte-identical, 1 otherwise.
set -euo pipefail

if [ $# -ne 2 ]; then
  echo "usage: $0 BUILD_A BUILD_B" >&2
  exit 2
fi

build_a=$(cd "$1" && pwd)
build_b=$(cd "$2" && pwd)
work=$(mktemp -d)
diff_lines=200  # per differing output
trap 'rm -rf "$work"' EXIT

# The oracle set: one line per bench invocation, "<name> <bench> [args]".
# Output paths are relative to a per-build working directory.
oracles=(
  "fig5_batched   bench_fig5_batched   --json-out=fig5_batched.json"
  "ud_scale       bench_ud_scale       --json-out=ud_scale.json"
  "onesided       bench_onesided       --json-out=onesided.json"
  "srq_scale      bench_srq_scale      --json-out=srq_scale.json"
  "fig5_tput      bench_fig5_throughput --json-out=fig5_tput.json --report-out=fig5_tput_report.txt"
  "fig5_latency   bench_fig5_latency   --trace-out=fig5_latency.trace.json"
  "stream_bw      bench_stream_bw      --json-out=stream_bw.json"
  # stdout only: the per-method call profile (Table I) and the receive-path
  # allocation and message-size statistics (Fig. 1, Fig. 3).
  "table1_profile bench_table1_rpc_profile"
  "fig1_alloc     bench_fig1_alloc_ratio"
  "fig3_sizes     bench_fig3_size_locality"
)

run_set() {
  local build=$1 dir=$2
  mkdir -p "$dir"
  for line in "${oracles[@]}"; do
    read -r name bench args <<<"$line"
    # shellcheck disable=SC2086  # args is a deliberate word list
    (cd "$dir" && "$build/bench/$bench" $args >"$name.stdout")
  done
}

# A non-empty file grep -I refuses to read as text.
is_binary() {
  [ -s "$1" ] && ! grep -qI '' "$1"
}

echo "running oracle set from $build_a"
run_set "$build_a" "$work/a"
echo "running oracle set from $build_b"
run_set "$build_b" "$work/b"

status=0
files_a=$(cd "$work/a" && ls | sort)
files_b=$(cd "$work/b" && ls | sort)
if [ "$files_a" != "$files_b" ]; then
  echo "DIFF output file sets differ:"
  diff <(echo "$files_a") <(echo "$files_b") || true
  status=1
fi
for f in $files_a; do
  if [ ! -f "$work/b/$f" ]; then
    continue
  elif cmp -s "$work/a/$f" "$work/b/$f"; then
    echo "same  $f"
  else
    echo "DIFF  $f"
    # The whole unified diff of a text output, capped, so an intended
    # change can be reviewed from the log.
    if ! is_binary "$work/a/$f" && ! is_binary "$work/b/$f"; then
      diff -u --label "a/$f" --label "b/$f" "$work/a/$f" "$work/b/$f" | head -n "$diff_lines" || true
    else
      echo "  (binary output; not shown)"
    fi
    status=1
  fi
done
if [ "$status" -eq 0 ]; then
  echo "identity check passed: every output is byte-identical"
else
  echo "identity check FAILED"
fi
exit "$status"
