// JobTracker: the MapReduce master.
//
// Serves JobSubmissionProtocol (submitJob/getJobStatus) and
// InterTrackerProtocol (heartbeat — the "JT heartbeat" whose size
// locality Fig. 3 plots, since every beat carries the tracker's full task
// status array). Scheduling is slot-based FIFO like Hadoop 0.20's default
// scheduler: maps first, reduces once enough maps have finished.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "mapred/types.hpp"
#include "rpc/rpc.hpp"
#include "rpcoib/engine.hpp"
#include "sim/sync.hpp"

namespace rpcoib::mapred {

struct JobTrackerConfig {
  /// A TaskTracker whose last heartbeat is older than this is declared
  /// lost and its un-finished tasks are re-queued (Hadoop's
  /// mapred.tasktracker.expiry.interval, default 10 min; 0 disables the
  /// monitor — legacy behavior, lost tasks hang the job).
  sim::Dur tracker_expiry = 0;
  /// How often the expiry monitor scans tracker liveness.
  sim::Dur expiry_check_interval = sim::seconds(5);
};

class JobTracker {
 public:
  JobTracker(cluster::Host& host, oib::RpcEngine& engine, net::Address addr,
             JobTrackerConfig cfg = {});
  ~JobTracker();
  JobTracker(const JobTracker&) = delete;
  JobTracker& operator=(const JobTracker&) = delete;

  void start();
  void stop();

  const net::Address& addr() const { return addr_; }

  /// Tasks re-queued after their TaskTracker stopped heartbeating.
  std::uint64_t tasks_reexecuted() const { return tasks_reexecuted_; }

  /// In-process job registry: TaskTrackers resolve the JobSpec here (the
  /// real job.xml fetch through HDFS is charged separately via
  /// JobSpec::localization_nn_calls).
  const JobSpec* spec_of(JobId id) const;

  JobStatus status_of(JobId id) const;

 private:
  struct Job {
    JobId id = -1;
    JobSpec spec;
    std::deque<TaskId> pending_maps;
    std::deque<TaskId> pending_reduces;
    int maps_done = 0;
    int reduces_done = 0;
    bool complete = false;
    sim::Time submit_time = 0;
    sim::Time finish_time = 0;
    std::vector<std::int32_t> completed_map_hosts;  // shuffle sources
    trace::TraceContext trace_ctx;  // submitting client's job span
    bool first_assign_traced = false;
    /// Completion dedup: a task re-executed after a tracker loss may
    /// still be finished by the original tracker, too.
    std::set<std::pair<int, TaskId>> done_tasks;
  };

  /// Liveness + assignment bookkeeping per TaskTracker (keyed by host id).
  struct TrackerState {
    sim::Time last_heartbeat = 0;
    std::vector<TaskAssignment> assigned;  // handed out, not yet done/failed
  };

  void register_handlers();
  void on_task_complete(Job& job, const TaskAssignment& t, std::int32_t tracker_host);
  void forget_assignment(std::int32_t tracker, const TaskAssignment& t);
  sim::Task expiry_monitor();

  cluster::Host& host_;
  oib::RpcEngine& engine_;
  net::Address addr_;
  JobTrackerConfig cfg_;
  std::unique_ptr<rpc::RpcServer> server_;
  std::map<JobId, Job> jobs_;
  std::map<std::int32_t, TrackerState> trackers_;
  std::uint64_t tasks_reexecuted_ = 0;
  bool running_ = false;
  JobId next_job_id_ = 1;
};

}  // namespace rpcoib::mapred
