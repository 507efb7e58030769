#include "mapred/tasktracker.hpp"

#include <algorithm>

#include "net/frame.hpp"
#include "trace/trace.hpp"

namespace rpcoib::mapred {

using sim::Co;
using sim::Task;

namespace {
const rpc::MethodKey kHeartbeat{kInterTrackerProtocol, "heartbeat"};
const rpc::MethodKey kJtCompletionEvents{kInterTrackerProtocol, "getMapCompletionEvents"};
const rpc::MethodKey kGetTask{kTaskUmbilicalProtocol, "getTask"};
const rpc::MethodKey kPing{kTaskUmbilicalProtocol, "ping"};
const rpc::MethodKey kStatusUpdate{kTaskUmbilicalProtocol, "statusUpdate"};
const rpc::MethodKey kDone{kTaskUmbilicalProtocol, "done"};
const rpc::MethodKey kCommitPending{kTaskUmbilicalProtocol, "commitPending"};
const rpc::MethodKey kCanCommit{kTaskUmbilicalProtocol, "canCommit"};
const rpc::MethodKey kGetMapCompletionEvents{kTaskUmbilicalProtocol,
                                             "getMapCompletionEvents"};
const rpc::MethodKey kGetFileInfo{hdfs::kClientProtocol, "getFileInfo"};

}  // namespace

TaskTracker::TaskTracker(cluster::Host& host, oib::RpcEngine& engine, net::Address jt_addr,
                         hdfs::HdfsCluster& hdfs, TaskTrackerConfig cfg)
    : host_(host),
      engine_(engine),
      jt_addr_(jt_addr),
      umbilical_addr_{host.id(), cfg.umbilical_port},
      hdfs_(hdfs),
      cfg_(cfg),
      jt_rpc_(engine.make_client(host)),
      umbilical_rpc_(engine.make_client(host)),
      umbilical_server_(engine.make_server(host, umbilical_addr_)),
      dfs_(hdfs.make_client(host, "tt-" + std::to_string(host.id()))),
      free_map_slots_(cfg.map_slots),
      free_reduce_slots_(cfg.reduce_slots) {
  register_umbilical_handlers();
}

TaskTracker::~TaskTracker() { stop(); }

void TaskTracker::start() {
  if (running_flag_) return;
  running_flag_ = true;
  umbilical_server_->start();
  if (engine_.config().stream.enabled && hdfs_.data_mode() == hdfs::DataMode::kRdma) {
    // Fresh hub per start, like the DataNode: a stopped hub cannot listen
    // again, and chaos tests restart trackers.
    stream_hub_ = std::make_unique<oib::stream::StreamHub>(
        host_, engine_.testbed().sockets(), engine_.verbs(), engine_.config().stream,
        engine_.config().pool);
    stream_hub_->listen(
        {host_.id(), oib::stream::kShuffleStreamPort},
        [](oib::stream::StreamReaderPtr r, net::Bytes) -> sim::Task {
          const std::string why = "shuffle port serves fetches only";
          co_await r->abort(why);
        },
        [this](oib::stream::StreamHub::ConnPtr c, std::uint64_t token, net::Bytes meta) {
          return serve_shuffle(std::move(c), token, std::move(meta));
        });
  }
  host_.sched().spawn(heartbeat_loop());
}

void TaskTracker::stop() {
  if (!running_flag_) return;
  running_flag_ = false;
  umbilical_server_->stop();
  if (stream_hub_ != nullptr) stream_hub_->stop();
}

void TaskTracker::register_umbilical_handlers() {
  rpc::Dispatcher& d = umbilical_server_->dispatcher();
  auto ack = [](rpc::DataInput& in, rpc::DataOutput& out) -> Co<void> {
    TaskIdParam p;
    p.read_fields(in);
    rpc::BooleanWritable(true).write(out);
    co_return;
  };
  d.register_method(kTaskUmbilicalProtocol, "getTask", ack);
  d.register_method(kTaskUmbilicalProtocol, "ping", ack);
  d.register_method(kTaskUmbilicalProtocol, "done", ack);
  d.register_method(kTaskUmbilicalProtocol, "commitPending", ack);
  d.register_method(kTaskUmbilicalProtocol, "canCommit", ack);

  d.register_method(kTaskUmbilicalProtocol, "statusUpdate",
                    [this](rpc::DataInput& in, rpc::DataOutput& out) -> Co<void> {
                      StatusUpdateParam p;
                      p.read_fields(in);
                      auto it = running_.find({p.report.job, p.report.task});
                      if (it != running_.end()) it->second.progress = p.report.progress;
                      rpc::BooleanWritable(true).write(out);
                      co_return;
                    });

  // Reduce tasks poll their tracker; the tracker relays to the JobTracker
  // (Hadoop's TaskTracker caches these; the relay traffic is the point).
  d.register_method(kTaskUmbilicalProtocol, "getMapCompletionEvents",
                    [this](rpc::DataInput& in, rpc::DataOutput& out) -> Co<void> {
                      rpc::IntWritable job_id;
                      job_id.read_fields(in);
                      MapCompletionEventsResult r;
                      co_await jt_rpc_->call(jt_addr_, kJtCompletionEvents, job_id, &r);
                      r.write(out);
                      co_return;
                    });
}

sim::Task TaskTracker::heartbeat_loop() {
  try {
    while (running_flag_) {
      HeartbeatRequest req;
      req.tracker = host_.id();
      req.free_map_slots = free_map_slots_;
      req.free_reduce_slots = free_reduce_slots_;
      for (const auto& [key, rt] : running_) {
        TaskReport r;
        r.job = key.first;
        r.task = key.second;
        r.type = rt.assignment.type;
        r.progress = rt.progress;
        req.running.push_back(std::move(r));
      }
      while (!completed_pending_report_.empty()) {
        req.completed.push_back(completed_pending_report_.front());
        completed_pending_report_.pop_front();
      }
      while (!failed_pending_report_.empty()) {
        req.failed.push_back(failed_pending_report_.front());
        failed_pending_report_.pop_front();
      }

      HeartbeatResponse resp;
      co_await jt_rpc_->call(jt_addr_, kHeartbeat, req, &resp);

      oob_pending_ = false;
      for (const TaskAssignment& t : resp.new_tasks) {
        const JobSpec* spec = nullptr;
        // The spec lives at the JobTracker; fetching job.xml is modeled by
        // the localization calls inside run_task. In-process lookup:
        spec = jt_spec_lookup_ != nullptr ? jt_spec_lookup_(t.job) : nullptr;
        if (spec == nullptr) continue;
        if (t.type == TaskType::kMap) {
          --free_map_slots_;
        } else {
          --free_reduce_slots_;
        }
        running_[{t.job, t.task}] = RunningTask{t, 0};
        host_.sched().spawn(run_task(t, *spec));
      }
      // Sleep in slices so an out-of-band completion wakes the next
      // heartbeat early.
      const sim::Dur slice = cfg_.heartbeat_interval / 12;
      sim::Dur slept = 0;
      while (slept < cfg_.heartbeat_interval) {
        co_await sim::delay(host_.sched(), slice);
        slept += slice;
        if (cfg_.out_of_band_heartbeat && oob_pending_) break;
      }
    }
  } catch (const rpc::RpcTransportError&) {
  } catch (const rpc::RemoteException&) {
  }
}

sim::Task TaskTracker::run_task(TaskAssignment t, JobSpec spec) {
  bool failed = false;
  try {
    // Fault injection (JobSpec::inject_map_failures): first attempts of
    // the designated maps die, exercising JobTracker rescheduling.
    const bool first_attempt = attempted_.insert({t.job, t.task}).second;
    if (t.type == TaskType::kMap && first_attempt &&
        t.task < spec.inject_map_failures) {
      co_await sim::delay(host_.sched(), spec.task_startup);
      throw std::runtime_error("injected task failure");
    }
    if (t.type == TaskType::kMap) {
      co_await run_map(t, spec);
    } else {
      co_await run_reduce(t, spec);
    }
  } catch (const std::exception&) {
    failed = true;
  }
  running_.erase({t.job, t.task});
  if (failed) {
    failed_pending_report_.push_back(t);
  } else {
    completed_pending_report_.push_back(t);
  }
  oob_pending_ = true;
  if (t.type == TaskType::kMap) {
    ++free_map_slots_;
  } else {
    ++free_reduce_slots_;
  }
}

sim::Co<void> TaskTracker::umbilical_get_task(const TaskAssignment& t) {
  TaskIdParam p;
  p.job = t.job;
  p.task = t.task;
  rpc::BooleanWritable ok;
  co_await umbilical_rpc_->call(umbilical_addr_, kGetTask, p, &ok);
}

sim::Co<void> TaskTracker::umbilical_simple(const char* method, const TaskAssignment& t) {
  TaskIdParam p;
  p.job = t.job;
  p.task = t.task;
  rpc::BooleanWritable ok;
  const rpc::MethodKey key{kTaskUmbilicalProtocol, method};
  co_await umbilical_rpc_->call(umbilical_addr_, key, p, &ok);
}

sim::Co<void> TaskTracker::umbilical_status(const TaskAssignment& t, float progress) {
  StatusUpdateParam p;
  p.report.job = t.job;
  p.report.task = t.task;
  p.report.type = t.type;
  p.report.progress = progress;
  p.state_string = progress < 1.0f ? "running > sort" : "cleanup";
  rpc::BooleanWritable ok;
  co_await umbilical_rpc_->call(umbilical_addr_, kStatusUpdate, p, &ok);
}

sim::Co<MapCompletionEventsResult> TaskTracker::umbilical_completion_events(JobId job) {
  rpc::IntWritable id(job);
  MapCompletionEventsResult r;
  co_await umbilical_rpc_->call(umbilical_addr_, kGetMapCompletionEvents, id, &r);
  co_return r;
}

sim::Co<bool> TaskTracker::fetch_segment_streamed(cluster::HostId src,
                                                  std::uint64_t seg_bytes) {
  oib::stream::StreamReaderPtr r = co_await stream_hub_->fetch(
      {src, oib::stream::kShuffleStreamPort}, net::encode_frame(ShuffleMeta{seg_bytes}));
  if (r == nullptr) co_return false;  // no listener at the peer / refused / timed out
  bool ok = false;  // co_await is not allowed inside a handler
  try {
    const std::uint64_t nchunks = r->num_chunks();
    for (std::uint64_t i = 0; i < nchunks; ++i) {
      oib::stream::Chunk c = co_await r->next_chunk();
      co_await r->release_chunk(c.seq);
    }
    co_await r->finish(0);
    ok = true;
  } catch (const std::exception&) {
  }
  if (!ok) {
    const std::string why = "shuffle fetch failed";
    co_await r->abort(why);
  }
  co_return ok;
}

sim::Task TaskTracker::serve_shuffle(oib::stream::StreamHub::ConnPtr conn,
                                     std::uint64_t token, net::Bytes meta) {
  ShuffleMeta m;
  if (meta.size() != net::frame_size(m) || !net::decode_frame(meta, m) || m.seg_bytes == 0 ||
      stream_hub_ == nullptr) {
    co_return;  // the fetcher times out and takes its legacy path
  }
  oib::stream::StreamWriterPtr w = co_await stream_hub_->open_on(conn, token, m.seg_bytes);
  if (w == nullptr) co_return;  // capped pool / no grant: same fetcher timeout
  bool ok = false;  // co_await is not allowed inside a handler
  std::string why;
  try {
    // Map outputs are synthetic at benchmark scale; the segment's read cost
    // was already charged when the map spilled it and the page cache holds
    // it, so serving is pure wire + chunk bookkeeping.
    co_await w->write_all();
    co_await w->close();
    ok = true;
  } catch (const std::exception& e) {
    why = e.what();
  }
  if (!ok) co_await w->abort(why);
}

sim::Co<void> TaskTracker::traced_disk(trace::TraceContext ctx, const char* name,
                                       std::uint64_t bytes) {
  const sim::Time t0 = host_.sched().now();
  co_await host_.disk_io(bytes);
  if (ctx.valid()) {
    if (trace::TraceCollector* tr = trace::active(host_.tracer())) {
      tr->add_complete(name, trace::Kind::kInternal, trace::Category::kDisk, ctx,
                       host_.id(), t0, host_.sched().now());
    }
  }
}

sim::Co<void> TaskTracker::traced_compute(trace::TraceContext ctx, const char* name,
                                          sim::Dur d) {
  const sim::Time t0 = host_.sched().now();
  co_await host_.compute(d);
  if (ctx.valid()) {
    if (trace::TraceCollector* tr = trace::active(host_.tracer())) {
      tr->add_complete(name, trace::Kind::kInternal, trace::Category::kCompute, ctx,
                       host_.id(), t0, host_.sched().now());
    }
  }
}

sim::Co<void> TaskTracker::run_map(const TaskAssignment& t, const JobSpec& spec) {
  trace::TraceCollector* tr = trace::active(host_.tracer());
  trace::SpanScope task(tr, "task:map:" + std::to_string(t.task), trace::Kind::kInternal,
                        trace::Category::kCompute, t.ctx(), host_.id());
  const trace::TraceContext ctx = task.context();
  // Child JVM launch + localization (job.xml / job.jar / split metadata).
  co_await sim::delay(host_.sched(), spec.task_startup);
  for (int i = 0; i < spec.localization_nn_calls; ++i) {
    trace::activate(tr, ctx);
    hdfs::FileStatusResult r = co_await dfs_->get_file_info("/jobs/job_" +
                                                            std::to_string(t.job) + ".xml");
    (void)r;
  }
  trace::activate(tr, ctx);
  co_await umbilical_get_task(t);

  const std::uint64_t split =
      spec.num_maps > 0 ? spec.input_bytes / static_cast<std::uint64_t>(spec.num_maps) : 0;
  const double split_mb = static_cast<double>(split) / 1e6;

  // Input open: getFileInfo + getBlockLocations against the NameNode
  // (Table I's Map-phase ClientProtocol rows), then a node-local read.
  // Benchmark inputs are synthetic, so a missing file is tolerated: the
  // RPC round trips still happen and the split is read locally.
  if (split > 0) {
    trace::activate(tr, ctx);
    hdfs::FileStatusResult fs = co_await dfs_->get_file_info(spec.output_path + "/input");
    (void)fs;
    try {
      trace::activate(tr, ctx);
      hdfs::LocatedBlocksResult lb =
          co_await dfs_->get_block_locations(spec.output_path + "/input", 0, split);
      (void)lb;
    } catch (const rpc::RemoteException&) {
      // Synthetic input: proceed with the modeled local read.
    }
  }

  // Process the split in thirds: read, compute, report progress.
  for (int phase = 1; phase <= 3; ++phase) {
    co_await traced_disk(ctx, "map.read", split / 3);
    co_await traced_compute(ctx, "map.func",
                            sim::from_us(split_mb / 3.0 * spec.map_cpu_us_per_mb));
    trace::activate(tr, ctx);
    co_await umbilical_status(t, static_cast<float>(phase) / 3.0f);
  }
  trace::activate(tr, ctx);
  co_await umbilical_simple("ping", t);

  // Spill + sort the map output to local disk.
  const auto map_out =
      static_cast<std::uint64_t>(static_cast<double>(split) * spec.map_output_ratio);
  if (map_out > 0) co_await traced_disk(ctx, "map.spill", map_out);

  // RandomWriter-style direct HDFS output for map-only jobs.
  if (spec.map_direct_output_bytes > 0) {
    trace::activate(tr, ctx);
    co_await dfs_->write_file(spec.output_path + "/part-m-" + std::to_string(t.task),
                              spec.map_direct_output_bytes);
  }
  trace::activate(tr, ctx);
  co_await umbilical_simple("done", t);
}

sim::Co<void> TaskTracker::run_reduce(const TaskAssignment& t, const JobSpec& spec) {
  trace::TraceCollector* tr = trace::active(host_.tracer());
  trace::SpanScope task(tr, "task:reduce:" + std::to_string(t.task),
                        trace::Kind::kInternal, trace::Category::kCompute, t.ctx(),
                        host_.id());
  const trace::TraceContext ctx = task.context();
  co_await sim::delay(host_.sched(), spec.task_startup);
  for (int i = 0; i < spec.localization_nn_calls; ++i) {
    trace::activate(tr, ctx);
    hdfs::FileStatusResult r = co_await dfs_->get_file_info("/jobs/job_" +
                                                            std::to_string(t.job) + ".xml");
    (void)r;
  }
  trace::activate(tr, ctx);
  co_await umbilical_get_task(t);

  const std::uint64_t shuffle_total = static_cast<std::uint64_t>(
      static_cast<double>(spec.input_bytes) * spec.map_output_ratio);
  const std::uint64_t per_map_seg =
      spec.num_maps > 0 && spec.num_reduces > 0
          ? shuffle_total / static_cast<std::uint64_t>(spec.num_maps) /
                static_cast<std::uint64_t>(spec.num_reduces)
          : 0;

  // Shuffle: poll completion events via the umbilical (Table I's
  // getMapCompletionEvents), fetch each newly finished map's segment.
  std::size_t fetched = 0;
  const net::Transport shuffle_t = hdfs::data_transport(hdfs_.data_mode());
  int polls_without_progress = 0;
  for (;;) {
    trace::activate(tr, ctx);
    MapCompletionEventsResult ev = co_await umbilical_completion_events(t.job);
    while (fetched < ev.completed_map_hosts.size()) {
      const auto src = static_cast<cluster::HostId>(ev.completed_map_hosts[fetched]);
      if (per_map_seg > 0) {
        const sim::Time t_fetch = host_.sched().now();
        // Streamed fetch first (pipelined chunks through the peer's hub);
        // any refusal or mid-stream failure falls back to the modeled
        // one-shot transfer, so the reduce always makes progress.
        bool streamed = false;
        if (stream_hub_ != nullptr && src != host_.id() &&
            stream_hub_->should_stream(per_map_seg)) {
          streamed = co_await fetch_segment_streamed(src, per_map_seg);
        }
        if (!streamed) {
          co_await engine_.testbed().fabric().transfer(src, host_.id(), shuffle_t,
                                                       per_map_seg);
        }
        if (ctx.valid()) {
          tr->add_complete("shuffle.fetch", trace::Kind::kInternal,
                           streamed ? trace::Category::kStream : trace::Category::kWire,
                           ctx, host_.id(), t_fetch, host_.sched().now());
        }
        co_await traced_disk(ctx, "shuffle.spill", per_map_seg);
      }
      ++fetched;
      if (fetched % 16 == 0) {
        trace::activate(tr, ctx);
        co_await umbilical_status(
            t, 0.33f * static_cast<float>(fetched) /
                   static_cast<float>(std::max(ev.total_maps, 1)));
      }
    }
    if (ev.total_maps > 0 && fetched >= static_cast<std::size_t>(ev.total_maps)) break;
    ++polls_without_progress;
    if (polls_without_progress > 10000) break;  // safety valve
    co_await sim::delay(host_.sched(), cfg_.reduce_event_poll_interval);
  }

  // Merge + reduce.
  const std::uint64_t reduce_in =
      spec.num_reduces > 0 ? shuffle_total / static_cast<std::uint64_t>(spec.num_reduces)
                           : 0;
  const double in_mb = static_cast<double>(reduce_in) / 1e6;
  co_await traced_disk(ctx, "reduce.merge", reduce_in);
  trace::activate(tr, ctx);
  co_await umbilical_status(t, 0.66f);
  co_await traced_compute(ctx, "reduce.func",
                          sim::from_us(in_mb * spec.reduce_cpu_us_per_mb));
  trace::activate(tr, ctx);
  co_await umbilical_status(t, 0.9f);

  // Output commit: the RPC-heavy tail of Table I's Reduce column —
  // mkdirs/create/addBlock/.../complete via the DFS write, plus the
  // commitPending/canCommit/done umbilical handshake.
  const auto out_bytes = static_cast<std::uint64_t>(static_cast<double>(reduce_in) *
                                                    spec.reduce_output_ratio);
  trace::activate(tr, ctx);
  co_await umbilical_simple("commitPending", t);
  trace::activate(tr, ctx);
  co_await umbilical_simple("canCommit", t);
  if (out_bytes > 0) {
    trace::activate(tr, ctx);
    co_await dfs_->write_file(spec.output_path + "/part-r-" + std::to_string(t.task),
                              out_bytes);
  }
  trace::activate(tr, ctx);
  co_await umbilical_status(t, 1.0f);
  trace::activate(tr, ctx);
  co_await umbilical_simple("done", t);
}

}  // namespace rpcoib::mapred
