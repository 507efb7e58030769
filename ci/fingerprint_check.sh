#!/usr/bin/env bash
# Virtual-metric identity of two source trees, by perfbench fingerprint.
#
#   ci/fingerprint_check.sh <base-tree> <change-tree>
#
# Builds perfbench in each tree (perfbench/run.py, into <tree>/.bench_build)
# and runs rpc_small, hdfs_ingest and hbase_mixed once there at seed 1 and
# at the held-out seed 2, with no extra repetitions and tracing off. The
# fingerprint hashes every virtual time and every per-layer count of a run,
# so a change that moves no modelled figure prints the same fingerprints as
# its base. Exits 1 when one differs or a
# run prints none.
set -euo pipefail

base=$1
change=$2
seeds="1 2"
workloads="rpc_small hdfs_ingest hbase_mixed"

fingerprint() {  # <tree> <workload> <seed>
  (cd "$1" && env -u CARGO_TARGET_DIR python3 perfbench/run.py --workload "$2" \
     --seed "$3" --seconds 0 --trace 0) | grep -o 'fingerprint [0-9a-f]*' || true
}

status=0
for seed in $seeds; do
  for w in $workloads; do
    a=$(fingerprint "$base" "$w" "$seed")
    b=$(fingerprint "$change" "$w" "$seed")
    if [[ -z "$a" || "$a" != "$b" ]]; then
      echo "DIFF $w seed $seed: base '${a:-none}', change '${b:-none}'"
      status=1
    else
      echo "same $w seed $seed: $a"
    fi
  done
done
exit $status
