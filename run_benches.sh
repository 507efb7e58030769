#!/bin/bash
# Regenerates every paper table/figure. Output: bench_output.txt
set -u
cd "$(dirname "$0")"
{
  ./build/bench/bench_fig1_alloc_ratio
  ./build/bench/bench_fig3_size_locality
  ./build/bench/bench_fig5_latency
  ./build/bench/bench_fig5_throughput
  ./build/bench/bench_fig5_batched
  ./build/bench/bench_table1_rpc_profile
  ./build/bench/bench_fig6_cloudburst
  ./build/bench/bench_fig7_hdfs_write
  ./build/bench/bench_fig8_hbase "${FIG8_SCALE:-10}"
  ./build/bench/bench_fig6_sort "${FIG6_SCALE:-1}"
  ./build/bench/bench_ablation_pool
  ./build/bench/bench_ablation_threshold
  ./build/bench/bench_srq_scale
  ./build/bench/bench_ud_scale
  ./build/bench/bench_onesided
  ./build/bench/bench_stream_bw
  ./build/bench/bench_micro_buffers --benchmark_min_time=0.05
  ./build/bench/bench_micro_trace_overhead
} 2>&1
