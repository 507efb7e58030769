#include "mapred/jobtracker.hpp"

#include "trace/trace.hpp"

namespace rpcoib::mapred {

JobTracker::JobTracker(cluster::Host& host, oib::RpcEngine& engine, net::Address addr,
                       JobTrackerConfig cfg)
    : host_(host), engine_(engine), addr_(addr), cfg_(cfg) {
  server_ = engine_.make_server(host_, addr_);
  register_handlers();
}

JobTracker::~JobTracker() { stop(); }

void JobTracker::start() {
  running_ = true;
  server_->start();
  if (cfg_.tracker_expiry > 0) host_.sched().spawn(expiry_monitor());
}
void JobTracker::stop() {
  running_ = false;
  if (server_) server_->stop();
}

void JobTracker::forget_assignment(std::int32_t tracker, const TaskAssignment& t) {
  auto it = trackers_.find(tracker);
  if (it == trackers_.end()) return;
  std::erase_if(it->second.assigned, [&t](const TaskAssignment& a) {
    return a.job == t.job && a.task == t.task && a.type == t.type;
  });
}

sim::Task JobTracker::expiry_monitor() {
  while (running_) {
    co_await sim::delay(host_.sched(), cfg_.expiry_check_interval);
    if (!running_) break;
    const sim::Time now = host_.sched().now();
    for (auto it = trackers_.begin(); it != trackers_.end();) {
      TrackerState& ts = it->second;
      if (now - ts.last_heartbeat <= cfg_.tracker_expiry) {
        ++it;
        continue;
      }
      // Tracker lost: hand its un-finished tasks back to their jobs.
      for (const TaskAssignment& t : ts.assigned) {
        auto jit = jobs_.find(t.job);
        if (jit == jobs_.end()) continue;
        Job& job = jit->second;
        if (job.done_tasks.count({static_cast<int>(t.type), t.task}) != 0) continue;
        if (t.type == TaskType::kMap) {
          job.pending_maps.push_front(t.task);
        } else {
          job.pending_reduces.push_front(t.task);
        }
        ++tasks_reexecuted_;
        trace::TraceCollector* tr = trace::active(host_.tracer());
        if (tr != nullptr && job.trace_ctx.valid()) {
          tr->add_complete("fault.tracker_lost", trace::Kind::kInternal,
                           trace::Category::kFault, job.trace_ctx, host_.id(),
                           ts.last_heartbeat, now);
        }
      }
      it = trackers_.erase(it);
    }
  }
}

const JobSpec* JobTracker::spec_of(JobId id) const {
  auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : &it->second.spec;
}

JobStatus JobTracker::status_of(JobId id) const {
  JobStatus st;
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return st;
  st.exists = true;
  st.complete = it->second.complete;
  st.maps_done = it->second.maps_done;
  st.reduces_done = it->second.reduces_done;
  st.submit_time = it->second.submit_time;
  st.finish_time = it->second.finish_time;
  return st;
}

void JobTracker::on_task_complete(Job& job, const TaskAssignment& t,
                                  std::int32_t tracker_host) {
  // A task can finish twice when its first tracker was declared lost but
  // kept running; only the first completion counts.
  if (!job.done_tasks.insert({static_cast<int>(t.type), t.task}).second) return;
  if (t.type == TaskType::kMap) {
    ++job.maps_done;
    job.completed_map_hosts.push_back(tracker_host);
  } else {
    ++job.reduces_done;
  }
  const int total_reduces = job.spec.map_only ? 0 : job.spec.num_reduces;
  if (job.maps_done >= job.spec.num_maps && job.reduces_done >= total_reduces &&
      !job.complete) {
    job.complete = true;
    job.finish_time = host_.sched().now();
  }
}

void JobTracker::register_handlers() {
  rpc::Dispatcher& d = server_->dispatcher();

  d.register_method<JobSubmission>(
      kJobSubmissionProtocol, "submitJob", [this](const JobSubmission& sub) {
        Job job;
        job.id = sub.id;
        job.spec = sub.spec;
        job.trace_ctx = sub.ctx();
        job.submit_time = host_.sched().now();
        for (TaskId t = 0; t < sub.spec.num_maps; ++t) job.pending_maps.push_back(t);
        if (!sub.spec.map_only) {
          for (TaskId t = 0; t < sub.spec.num_reduces; ++t) job.pending_reduces.push_back(t);
        }
        jobs_[sub.id] = std::move(job);
        return rpc::BooleanWritable(true);
      });

  d.register_method<rpc::IntWritable>(
      kJobSubmissionProtocol, "getJobStatus", [this](const rpc::IntWritable& id) {
        const JobStatus st = status_of(id.value);
        JobStatusResult r;
        r.exists = st.exists;
        r.complete = st.complete;
        r.maps_done = st.maps_done;
        r.reduces_done = st.reduces_done;
        return r;
      });

  d.register_method<HeartbeatRequest>(
      kInterTrackerProtocol, "heartbeat", [this](const HeartbeatRequest& req) {
        trackers_[req.tracker].last_heartbeat = host_.sched().now();
        HeartbeatResponse resp;
        // Process completions first so freed slots can be refilled.
        for (const TaskAssignment& t : req.completed) {
          forget_assignment(req.tracker, t);
          auto it = jobs_.find(t.job);
          if (it != jobs_.end()) on_task_complete(it->second, t, req.tracker);
        }
        // Failed attempts go back on the pending queue (front: retry soon).
        for (const TaskAssignment& t : req.failed) {
          forget_assignment(req.tracker, t);
          auto it = jobs_.find(t.job);
          if (it == jobs_.end()) continue;
          if (t.type == TaskType::kMap) {
            it->second.pending_maps.push_front(t.task);
          } else {
            it->second.pending_reduces.push_front(t.task);
          }
        }
        // FIFO over jobs: hand out maps; reduces once 5% of maps finished
        // (mapred.reduce.slowstart semantics, simplified).
        int free_maps = req.free_map_slots;
        int free_reduces = req.free_reduce_slots;
        for (auto& [id, job] : jobs_) {
          if (job.complete) continue;
          while (free_maps > 0 && !job.pending_maps.empty()) {
            TaskAssignment a{job.id, job.pending_maps.front(), TaskType::kMap};
            a.set_ctx(job.trace_ctx);
            if (!job.first_assign_traced) {
              // Attribute the submit -> first-heartbeat scheduling gap
              // (up to one heartbeat interval) as queueing, not job-other.
              job.first_assign_traced = true;
              trace::TraceCollector* tr = trace::active(host_.tracer());
              if (tr != nullptr && job.trace_ctx.valid()) {
                tr->add_complete("assign.wait", trace::Kind::kInternal,
                                 trace::Category::kQueue, job.trace_ctx,
                                 host_.id(), job.submit_time,
                                 host_.sched().now());
              }
            }
            resp.new_tasks.push_back(a);
            job.pending_maps.pop_front();
            --free_maps;
          }
          const bool slowstart_met =
              job.maps_done * 20 >= job.spec.num_maps || job.pending_maps.empty();
          while (free_reduces > 0 && slowstart_met && !job.pending_reduces.empty()) {
            TaskAssignment a{job.id, job.pending_reduces.front(), TaskType::kReduce};
            a.set_ctx(job.trace_ctx);
            resp.new_tasks.push_back(a);
            job.pending_reduces.pop_front();
            --free_reduces;
          }
        }
        TrackerState& ts = trackers_[req.tracker];
        ts.assigned.insert(ts.assigned.end(), resp.new_tasks.begin(),
                           resp.new_tasks.end());
        return resp;
      });

  // Shuffle support: TaskTrackers relay reduce-side completion-event polls.
  d.register_method<rpc::IntWritable>(
      kInterTrackerProtocol, "getMapCompletionEvents", [this](const rpc::IntWritable& job_id) {
        MapCompletionEventsResult r;
        auto it = jobs_.find(job_id.value);
        if (it != jobs_.end()) {
          r.total_maps = it->second.spec.num_maps;
          r.completed_map_hosts = it->second.completed_map_hosts;
        }
        return r;
      });
}

}  // namespace rpcoib::mapred
