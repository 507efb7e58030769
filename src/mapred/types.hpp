// MapReduce data model: job specifications, task descriptors, and the
// Writable payloads for the two protocols the paper profiles —
// mapred.InterTrackerProtocol (JobTracker heartbeats, "JT heartbeat" in
// Fig. 3) and mapred.TaskUmbilicalProtocol (Table I's Map/Reduce rows).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "rpc/writable.hpp"
#include "sim/time.hpp"
#include "trace/context.hpp"

namespace rpcoib::mapred {

inline constexpr const char* kInterTrackerProtocol = "mapred.InterTrackerProtocol";
inline constexpr const char* kTaskUmbilicalProtocol = "mapred.TaskUmbilicalProtocol";
inline constexpr const char* kJobSubmissionProtocol = "mapred.JobSubmissionProtocol";

using JobId = std::int32_t;
using TaskId = std::int32_t;

enum class TaskType : std::uint8_t { kMap = 0, kReduce = 1 };

/// Workload description — the knobs the paper's benchmarks vary.
struct JobSpec {
  std::string name = "job";
  int num_maps = 1;
  int num_reduces = 1;
  std::uint64_t input_bytes = 0;   // split evenly across maps
  double map_output_ratio = 1.0;   // map output / map input
  double reduce_output_ratio = 1.0;  // reduce output / shuffle input
  /// Synthetic output written by each map directly to HDFS (RandomWriter
  /// pattern: map-only jobs with generated data).
  std::uint64_t map_direct_output_bytes = 0;
  bool map_only = false;
  /// CPU cost of the user map/reduce function, microseconds per MB.
  double map_cpu_us_per_mb = 2000.0;
  double reduce_cpu_us_per_mb = 2500.0;
  /// Fixed per-task overhead (child JVM launch + localization compute).
  sim::Dur task_startup = sim::millis(900);
  /// NameNode RPCs during task localization (job.xml, job.jar, split file).
  int localization_nn_calls = 6;
  std::string output_path = "/out";
  /// Fault injection for tests: map tasks with id < this value fail on
  /// their first attempt (the JobTracker must reschedule them).
  int inject_map_failures = 0;
};

struct JobStatus {
  bool exists = false;
  bool complete = false;
  int maps_done = 0;
  int reduces_done = 0;
  sim::Time submit_time = 0;
  sim::Time finish_time = 0;
};

// --- Protocol payloads ------------------------------------------------------

/// Job submission carries the full job configuration (the job.xml
/// contents, in effect), so the JobTracker can hand specs to trackers.
struct JobSubmission final : rpc::Message<JobSubmission> {
  JobId id = -1;
  JobSpec spec;
  // Job-scoped trace context (vi64-encoded: one byte each when untraced),
  // so every task the job spawns parents to the submitter's job span.
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;

  trace::TraceContext ctx() const { return trace::TraceContext{trace_id, span_id}; }
  void set_ctx(trace::TraceContext c) {
    trace_id = c.trace_id;
    span_id = c.span_id;
  }

  template <typename IO>
  void fields(IO& io) {
    io.vi32(id).vi64(trace_id).vi64(span_id).text(spec.name).vi32(spec.num_maps);
    io.vi32(spec.num_reduces).u64(spec.input_bytes).f64(spec.map_output_ratio);
    io.f64(spec.reduce_output_ratio).u64(spec.map_direct_output_bytes).boolean(spec.map_only);
    io.f64(spec.map_cpu_us_per_mb).f64(spec.reduce_cpu_us_per_mb).u64(spec.task_startup);
    io.vi32(spec.localization_nn_calls).text(spec.output_path).vi32(spec.inject_map_failures);
  }
};

/// One runnable task handed to a TaskTracker in a heartbeat response.
struct TaskAssignment {
  JobId job = -1;
  TaskId task = -1;
  TaskType type = TaskType::kMap;
  // Job span context, stamped by the JobTracker on new assignments so the
  // tracker's task span parents to the submitting client's job span.
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;

  trace::TraceContext ctx() const { return trace::TraceContext{trace_id, span_id}; }
  void set_ctx(trace::TraceContext c) {
    trace_id = c.trace_id;
    span_id = c.span_id;
  }

  template <typename IO>
  void fields(IO& io) {
    io.vi32(job).vi32(task).u8(type).vi64(trace_id).vi64(span_id);
  }
  void write(rpc::DataOutput& out) const { rpc::FieldWriter(out).nested(*this); }
  void read_fields(rpc::DataInput& in) { rpc::FieldReader(in).nested(*this); }
};

/// Per-running-task status carried inside every TaskTracker heartbeat —
/// the reason "JT heartbeat" message sizes vary so widely in Fig. 3.
struct TaskReport {
  JobId job = -1;
  TaskId task = -1;
  TaskType type = TaskType::kMap;
  float progress = 0;
  // Hadoop ships the full named counter set on every report — the reason
  // statusUpdate serializations walk the 32-byte DataOutputBuffer through
  // ~5 adjustments in Table I.
  std::vector<std::pair<std::string, std::int64_t>> counters = default_counters();

  static std::vector<std::pair<std::string, std::int64_t>> default_counters() {
    return {
        {"org.apache.hadoop.mapred.Task$Counter.MAP_INPUT_RECORDS", 0},
        {"org.apache.hadoop.mapred.Task$Counter.MAP_OUTPUT_RECORDS", 0},
        {"org.apache.hadoop.mapred.Task$Counter.MAP_INPUT_BYTES", 0},
        {"org.apache.hadoop.mapred.Task$Counter.MAP_OUTPUT_BYTES", 0},
        {"org.apache.hadoop.mapred.Task$Counter.COMBINE_INPUT_RECORDS", 0},
        {"org.apache.hadoop.mapred.Task$Counter.COMBINE_OUTPUT_RECORDS", 0},
        {"org.apache.hadoop.mapred.Task$Counter.REDUCE_INPUT_GROUPS", 0},
        {"org.apache.hadoop.mapred.Task$Counter.REDUCE_SHUFFLE_BYTES", 0},
        {"org.apache.hadoop.mapred.Task$Counter.REDUCE_INPUT_RECORDS", 0},
        {"org.apache.hadoop.mapred.Task$Counter.REDUCE_OUTPUT_RECORDS", 0},
        {"org.apache.hadoop.mapred.Task$Counter.SPILLED_RECORDS", 0},
        {"FileSystemCounters.FILE_BYTES_READ", 0},
        {"FileSystemCounters.FILE_BYTES_WRITTEN", 0},
        {"FileSystemCounters.HDFS_BYTES_READ", 0},
        {"FileSystemCounters.HDFS_BYTES_WRITTEN", 0},
    };
  }

  template <typename IO>
  void fields(IO& io) {
    io.vi32(job).vi32(task).u8(type).f64(progress);
    io.list(counters, [](auto& io, auto& c) { io.text(c.first).vi64(c.second); });
  }
  void write(rpc::DataOutput& out) const { rpc::FieldWriter(out).nested(*this); }
  void read_fields(rpc::DataInput& in) { rpc::FieldReader(in).nested(*this); }
};

struct HeartbeatRequest final : rpc::Message<HeartbeatRequest> {
  std::int32_t tracker = -1;
  std::int32_t free_map_slots = 0;
  std::int32_t free_reduce_slots = 0;
  std::vector<TaskReport> running;  // full status, every heartbeat
  std::vector<TaskAssignment> completed;
  std::vector<TaskAssignment> failed;  // the JobTracker reschedules these

  template <typename IO>
  void fields(IO& io) {
    io.vi32(tracker).vi32(free_map_slots).vi32(free_reduce_slots);
    io.list(running).list(completed).list(failed);
  }
};

struct HeartbeatResponse final : rpc::Message<HeartbeatResponse> {
  std::vector<TaskAssignment> new_tasks;
  bool job_complete = false;

  template <typename IO>
  void fields(IO& io) {
    io.list(new_tasks).boolean(job_complete);
  }
};

/// Umbilical statusUpdate: the most adjustment-heavy call in Table I
/// (avg 5 memory adjustments) because the full TaskStatus + counters go
/// through a fresh 32-byte DataOutputBuffer every time.
struct StatusUpdateParam final : rpc::Message<StatusUpdateParam> {
  TaskReport report;
  std::string state_string;  // Hadoop ships a free-text state, too

  template <typename IO>
  void fields(IO& io) {
    io.nested(report).text(state_string);
  }
};

struct TaskIdParam final : rpc::Message<TaskIdParam> {
  JobId job = -1;
  TaskId task = -1;
  template <typename IO>
  void fields(IO& io) {
    io.vi32(job).vi32(task);
  }
};

struct MapCompletionEventsResult final : rpc::Message<MapCompletionEventsResult> {
  std::int32_t total_maps = 0;
  std::vector<std::int32_t> completed_map_hosts;  // host of each completed map

  template <typename IO>
  void fields(IO& io) {
    io.vi32(total_maps).list(completed_map_hosts, [](auto& io, auto& h) { io.vi32(h); });
  }
};

struct JobStatusResult final : rpc::Message<JobStatusResult> {
  bool exists = false;
  bool complete = false;
  std::int32_t maps_done = 0;
  std::int32_t reduces_done = 0;
  template <typename IO>
  void fields(IO& io) {
    io.boolean(exists).boolean(complete).vi32(maps_done).vi32(reduces_done);
  }
};

}  // namespace rpcoib::mapred
