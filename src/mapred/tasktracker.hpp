// TaskTracker: the per-node MapReduce worker daemon.
//
// Heartbeats to the JobTracker every 3 s carrying the full status of every
// running task (the variable-size "JT heartbeat" of Fig. 3), runs map and
// reduce tasks in slots (8 maps + 4 reduces per node, the paper's
// configuration), and serves TaskUmbilicalProtocol to its child tasks —
// the protocol whose getTask / ping / statusUpdate / commitPending /
// canCommit / done calls fill Table I.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <set>

#include "hdfs/hdfs_cluster.hpp"
#include "mapred/jobtracker.hpp"
#include "mapred/types.hpp"

namespace rpcoib::mapred {

/// Shuffle fetch metadata riding kStreamFetch: the segment size the server
/// streams back, exactly 8 bytes. (Job/task ids would select the real spill
/// file; the simulator only needs the byte count.)
struct ShuffleMeta {
  std::uint64_t seg_bytes = 0;
  template <typename IO> void fields(IO& io) { io.u64(seg_bytes); }
};

struct TaskTrackerConfig {
  int map_slots = 8;
  int reduce_slots = 4;
  sim::Dur heartbeat_interval = sim::seconds(3);
  /// Send a heartbeat immediately when a task completes
  /// (mapreduce.tasktracker.outofband.heartbeat).
  bool out_of_band_heartbeat = true;
  sim::Dur reduce_event_poll_interval = sim::seconds(1);
  /// Umbilical progress-report interval while a task runs.
  sim::Dur status_interval = sim::seconds(1);
  std::uint16_t umbilical_port = 50060;
};

class TaskTracker {
 public:
  TaskTracker(cluster::Host& host, oib::RpcEngine& engine, net::Address jt_addr,
              hdfs::HdfsCluster& hdfs, TaskTrackerConfig cfg = {});
  ~TaskTracker();
  TaskTracker(const TaskTracker&) = delete;
  TaskTracker& operator=(const TaskTracker&) = delete;

  void start();
  void stop();

  /// In-process JobSpec resolution (normally the job.xml fetched from
  /// HDFS; that fetch's RPC cost is modeled by localization_nn_calls).
  using SpecLookup = std::function<const JobSpec*(JobId)>;
  void set_spec_lookup(SpecLookup fn) { jt_spec_lookup_ = std::move(fn); }

  cluster::Host& host() const { return host_; }

  /// Bulk-stream endpoint, for stats inspection; null when streaming is
  /// disabled or the data path is not RDMA.
  oib::stream::StreamHub* stream_hub() { return stream_hub_.get(); }

 private:
  struct RunningTask {
    TaskAssignment assignment;
    float progress = 0;
  };

  sim::Task heartbeat_loop();
  sim::Task run_task(TaskAssignment t, JobSpec spec);
  sim::Co<void> run_map(const TaskAssignment& t, const JobSpec& spec);
  sim::Co<void> run_reduce(const TaskAssignment& t, const JobSpec& spec);

  /// Streamed shuffle fetch of one map-output segment from `src`. False on
  /// any fallback (no hub at the peer, refused, mid-stream failure): the
  /// caller re-fetches over the legacy modeled transfer.
  sim::Co<bool> fetch_segment_streamed(cluster::HostId src, std::uint64_t seg_bytes);
  /// Serve side of the role-flipped fetch: stream the requested segment
  /// back on the fetcher's own connection.
  sim::Task serve_shuffle(oib::stream::StreamHub::ConnPtr conn, std::uint64_t token,
                          net::Bytes meta);

  // Umbilical helpers (child task -> local TaskTracker RPC).
  sim::Co<void> umbilical_get_task(const TaskAssignment& t);
  sim::Co<void> umbilical_status(const TaskAssignment& t, float progress);
  sim::Co<void> umbilical_simple(const char* method, const TaskAssignment& t);
  sim::Co<MapCompletionEventsResult> umbilical_completion_events(JobId job);
  void register_umbilical_handlers();

  // Traced wrappers around modeled disk/compute charges: record a span
  // under `ctx` (the task span) when tracing is live, no-ops otherwise.
  sim::Co<void> traced_disk(trace::TraceContext ctx, const char* name,
                            std::uint64_t bytes);
  sim::Co<void> traced_compute(trace::TraceContext ctx, const char* name, sim::Dur d);

  cluster::Host& host_;
  oib::RpcEngine& engine_;
  net::Address jt_addr_;
  net::Address umbilical_addr_;
  hdfs::HdfsCluster& hdfs_;
  TaskTrackerConfig cfg_;

  std::unique_ptr<rpc::RpcClient> jt_rpc_;         // tracker -> JobTracker
  std::unique_ptr<rpc::RpcClient> umbilical_rpc_;  // child tasks -> tracker (loopback)
  std::unique_ptr<rpc::RpcServer> umbilical_server_;
  std::unique_ptr<hdfs::DFSClient> dfs_;           // shared by this node's tasks
  /// Bulk-stream endpoint for the shuffle (serves fetches of this node's
  /// map outputs, fetches remote segments); created per start() when
  /// streaming is enabled on the RDMA data path.
  std::unique_ptr<oib::stream::StreamHub> stream_hub_;

  SpecLookup jt_spec_lookup_;
  bool oob_pending_ = false;
  std::map<std::pair<JobId, TaskId>, RunningTask> running_;
  std::deque<TaskAssignment> completed_pending_report_;
  std::deque<TaskAssignment> failed_pending_report_;
  std::set<std::pair<JobId, TaskId>> attempted_;  // fault-injection bookkeeping
  int free_map_slots_;
  int free_reduce_slots_;
  bool running_flag_ = false;
};

}  // namespace rpcoib::mapred
