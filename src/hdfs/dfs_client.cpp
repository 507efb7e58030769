#include "hdfs/dfs_client.hpp"

#include <algorithm>

#include "trace/trace.hpp"

namespace rpcoib::hdfs {

using sim::Co;

namespace {
const rpc::MethodKey kGetFileInfo{kClientProtocol, "getFileInfo"};
const rpc::MethodKey kMkdirs{kClientProtocol, "mkdirs"};
const rpc::MethodKey kCreate{kClientProtocol, "create"};
const rpc::MethodKey kAddBlock{kClientProtocol, "addBlock"};
const rpc::MethodKey kAbandonBlock{kClientProtocol, "abandonBlock"};
const rpc::MethodKey kComplete{kClientProtocol, "complete"};
const rpc::MethodKey kRenewLease{kClientProtocol, "renewLease"};
const rpc::MethodKey kGetBlockLocations{kClientProtocol, "getBlockLocations"};
const rpc::MethodKey kGetListing{kClientProtocol, "getListing"};
const rpc::MethodKey kRename{kClientProtocol, "rename"};
const rpc::MethodKey kDelete{kClientProtocol, "delete"};
}  // namespace

DFSClient::DFSClient(cluster::Host& host, oib::RpcEngine& engine, net::Address nn_addr,
                     DatanodeResolver& resolver, DataMode data_mode, HdfsConfig cfg,
                     std::string client_name)
    : host_(host),
      fabric_(engine.testbed().fabric()),
      nn_addr_(nn_addr),
      resolver_(resolver),
      data_mode_(data_mode),
      cfg_(cfg),
      rpc_(engine.make_client(host)),
      name_(std::move(client_name)) {
  // The streamed block pipeline needs registered memory on both ends, so
  // it only exists on the RDMA data path; everywhere else the legacy
  // one-shot pipeline below is the only path.
  if (engine.config().stream.enabled && data_mode_ == DataMode::kRdma) {
    stream_hub_ = std::make_unique<oib::stream::StreamHub>(
        host, engine.testbed().sockets(), engine.verbs(), engine.config().stream,
        engine.config().pool);
  }
}

sim::Co<bool> DFSClient::mkdirs(const std::string& path) {
  PathParam p(path, name_);
  rpc::BooleanWritable r;
  co_await rpc_->call(nn_addr_, kMkdirs, p, &r);
  co_return r.value;
}

sim::Co<bool> DFSClient::exists(const std::string& path) {
  FileStatusResult r = co_await get_file_info(path);
  co_return r.exists;
}

sim::Co<FileStatusResult> DFSClient::get_file_info(const std::string& path) {
  PathParam p(path, name_);
  FileStatusResult r;
  co_await rpc_->call(nn_addr_, kGetFileInfo, p, &r);
  co_return r;
}

sim::Co<bool> DFSClient::rename(const std::string& src, const std::string& dst) {
  RenameParam p;
  p.src = src;
  p.dst = dst;
  rpc::BooleanWritable r;
  co_await rpc_->call(nn_addr_, kRename, p, &r);
  co_return r.value;
}

sim::Co<bool> DFSClient::remove(const std::string& path) {
  PathParam p(path, name_);
  rpc::BooleanWritable r;
  co_await rpc_->call(nn_addr_, kDelete, p, &r);
  co_return r.value;
}

sim::Co<bool> DFSClient::renew_lease(const std::string& path) {
  PathParam p(path, name_);
  rpc::BooleanWritable r;
  co_await rpc_->call(nn_addr_, kRenewLease, p, &r);
  co_return r.value;
}

sim::Co<ListingResult> DFSClient::get_listing(const std::string& path) {
  PathParam p(path, name_);
  ListingResult r;
  co_await rpc_->call(nn_addr_, kGetListing, p, &r);
  co_return r;
}

sim::Co<LocatedBlocksResult> DFSClient::get_block_locations(const std::string& path,
                                                            std::uint64_t offset,
                                                            std::uint64_t length) {
  GetBlockLocationsParam p;
  p.path = path;
  p.offset = offset;
  p.length = length;
  LocatedBlocksResult r;
  co_await rpc_->call(nn_addr_, kGetBlockLocations, p, &r);
  co_return r;
}

sim::Co<void> DFSClient::write_block(const std::string& path, std::uint64_t nbytes) {
  trace::TraceCollector* tr0 = trace::active(host_.tracer());
  const trace::TraceContext parent =
      tr0 != nullptr ? tr0->take_ambient() : trace::TraceContext{};
  for (int attempt = 0;; ++attempt) {
    trace::activate(tr0, parent);
    bool lost_pipeline = false;  // co_await is not allowed inside a handler
    try {
      co_await write_block_attempt(path, nbytes);
      co_return;
    } catch (const rpc::RpcTransportError& e) {
      if (attempt >= cfg_.pipeline_retries) throw;
      lost_pipeline = true;
    }
    if (lost_pipeline) {
      ++pipeline_retries_;
      if (attempt_block_ != 0) {
        // Drop the half-written block from the NameNode so complete() can
        // eventually succeed on the replacement block's replicas.
        AbandonBlockParam ap;
        ap.path = path;
        ap.client = name_;
        ap.block = attempt_block_;
        attempt_block_ = 0;
        trace::activate(tr0, parent);
        co_await rpc_->call(nn_addr_, kAbandonBlock, ap, nullptr);
      }
      const sim::Time t0 = host_.sched().now();
      co_await sim::delay(host_.sched(), cfg_.pipeline_retry_backoff);
      if (tr0 != nullptr && parent.valid()) {
        tr0->add_complete("retry.pipeline", trace::Kind::kInternal,
                          trace::Category::kRetry, parent, host_.id(), t0,
                          host_.sched().now());
      }
    }
  }
}

sim::Co<void> DFSClient::write_block_attempt(const std::string& path,
                                             std::uint64_t nbytes) {
  trace::TraceCollector* tr = trace::active(host_.tracer());
  trace::SpanScope blk(tr, "hdfs.block", trace::Kind::kInternal, trace::Category::kWire,
                       tr != nullptr ? tr->take_ambient() : trace::TraceContext{},
                       host_.id());
  const trace::TraceContext ctx = blk.context();
  // addBlock -> targets.
  AddBlockParam ab;
  ab.path = path;
  ab.client = name_;
  LocatedBlockResult lb;
  attempt_block_ = 0;
  trace::activate(tr, ctx);
  co_await rpc_->call(nn_addr_, kAddBlock, ab, &lb);
  attempt_block_ = lb.located.block.id;
  lb.located.block.num_bytes = nbytes;

  // Streamed pipeline first: chunk k+1 serializes while chunk k is on the
  // wire and the head datanode forwards it downstream. Any fallback (hub
  // declined, staging pool capped, ring grant refused, bootstrap failure)
  // returns false — counted in the hub's stats — and the legacy one-shot
  // path below runs unchanged.
  if (stream_hub_ != nullptr && !lb.located.locations.empty() &&
      stream_hub_->should_stream(nbytes)) {
    const bool streamed = co_await write_block_streamed(lb.located, ctx);
    if (streamed) {
      co_await block_nn_syncs(path, nbytes, ctx);
      blk.end();
      co_return;
    }
  }

  const net::Transport t = data_transport(data_mode_);
  const net::NetParams& np = fabric_.params(t);

  // Pipeline setup: serial connection establishment hop by hop.
  for (std::size_t i = 0; i < lb.located.locations.size(); ++i) {
    co_await sim::delay(host_.sched(), 2 * np.one_way_latency);
  }

  // Stream the block: sender-side per-packet costs on the client, wire
  // time on the client's egress; the forwarding hops overlap with the
  // stream and add one store-and-forward packet + latency each.
  const std::size_t packets = static_cast<std::size_t>(
      (nbytes + cfg_.packet_size - 1) / cfg_.packet_size);
  const sim::Dur send_cpu =
      data_packet_send_cost(host_.cost(), data_mode_, cfg_.packet_size) *
      packets;
  const sim::Time t_cpu = host_.sched().now();
  co_await host_.compute(send_cpu);
  if (ctx.valid()) {
    tr->add_complete("block.send_cpu", trace::Kind::kInternal, trace::Category::kSend,
                     ctx, host_.id(), t_cpu, host_.sched().now());
  }
  co_await fabric_.transfer(host_.id(), lb.located.locations.front(), t, nbytes);

  // Forwarding: reserve intermediate egress (contends with other
  // pipelines) and pay per-hop pipelining latency.
  for (std::size_t i = 0; i + 1 < lb.located.locations.size(); ++i) {
    fabric_.reserve_egress(lb.located.locations[i], t, nbytes);
    co_await sim::delay(host_.sched(),
                        np.one_way_latency + np.wire_time(cfg_.packet_size));
  }

  // Resolve the whole pipeline before spawning any deliver task: the
  // deliver tasks capture this frame's WaitGroup by reference, so a
  // lost-node throw after the first spawn would destroy the frame while
  // detached tasks still point into it (use-after-free on done()).
  std::vector<DataNode*> pipeline;
  for (DatanodeId dn_id : lb.located.locations) {
    DataNode* dn = resolver_.datanode(dn_id);
    if (dn == nullptr) {
      if (cfg_.pipeline_retries > 0) {
        blk.end();
        throw rpc::RpcTransportError("pipeline datanode " + std::to_string(dn_id) +
                                     " lost for block " +
                                     std::to_string(lb.located.block.id));
      }
      continue;  // legacy: skip dead nodes, under-replicate silently
    }
    pipeline.push_back(dn);
  }

  // Deliver to each datanode (receive costs + blockReceived RPC).
  sim::WaitGroup wg(host_.sched());
  for (DataNode* dn : pipeline) {
    wg.add(1);
    host_.sched().spawn([](DataNode* node, Block blk, DataMode mode,
                           sim::WaitGroup& done) -> sim::Task {
      co_await node->store_block(blk, mode);
      done.done();
    }(dn, lb.located.block, data_mode_, wg));
  }
  // The client's end-of-block ack waits for the last pipeline node.
  co_await wg.wait();

  co_await block_nn_syncs(path, nbytes, ctx);
  blk.end();
}

sim::Co<bool> DFSClient::write_block_streamed(const LocatedBlock& located,
                                              const trace::TraceContext& ctx) {
  StreamBlockMeta meta;
  meta.block = located.block;
  meta.downstream.assign(located.locations.begin() + 1, located.locations.end());
  oib::stream::StreamWriterPtr w = co_await stream_hub_->open(
      {located.locations.front(), oib::stream::kHdfsStreamPort},
      net::encode_frame(meta), located.block.num_bytes);
  if (w == nullptr) co_return false;  // fall back to the legacy path
  trace::TraceCollector* tr = trace::active(host_.tracer());
  const sim::Time t0 = host_.sched().now();
  bool failed = false;  // co_await is not allowed inside a handler
  std::string why;
  try {
    co_await w->write_all();
    const std::uint8_t status = co_await w->close();
    if (status != 0) {
      failed = true;
      why = "pipeline status " + std::to_string(status);
    }
  } catch (const oib::stream::StreamAbortedError& e) {
    failed = true;
    why = e.what();
  }
  if (tr != nullptr && ctx.valid()) {
    tr->add_complete("stream.block", trace::Kind::kInternal, trace::Category::kStream,
                     ctx, host_.id(), t0, host_.sched().now());
  }
  if (failed) {
    // Same failure surface as a lost legacy pipeline: write_block abandons
    // the block and re-requests fresh targets.
    throw rpc::RpcTransportError("streamed block " + std::to_string(located.block.id) +
                                 ": " + why);
  }
  co_return true;
}

sim::Co<void> DFSClient::block_nn_syncs(const std::string& path, std::uint64_t nbytes,
                                        const trace::TraceContext& ctx) {
  // Client<->NameNode synchronization attributable to this block beyond
  // addBlock (lease renewals, packet-window bookkeeping; calibrated per
  // full block and scaled by the bytes actually written — see
  // HdfsConfig::nn_syncs_per_block and EXPERIMENTS.md).
  trace::TraceCollector* tr = trace::active(host_.tracer());
  const int syncs = std::max(
      1, static_cast<int>(static_cast<double>(cfg_.nn_syncs_per_block) *
                          static_cast<double>(nbytes) / static_cast<double>(cfg_.block_size)));
  for (int i = 0; i < syncs; ++i) {
    PathParam p(path, name_);
    rpc::BooleanWritable ok;
    trace::activate(tr, ctx);
    co_await rpc_->call(nn_addr_, kRenewLease, p, &ok);
  }
}

sim::Co<void> DFSClient::write_file(const std::string& path, std::uint64_t nbytes) {
  trace::TraceCollector* tr = trace::active(host_.tracer());
  trace::SpanScope file(tr, "hdfs.write", trace::Kind::kInternal, trace::Category::kOther,
                        tr != nullptr ? tr->take_ambient() : trace::TraceContext{},
                        host_.id());
  const trace::TraceContext ctx = file.context();
  if (file) file.annotate("bytes", std::to_string(nbytes));
  CreateParam cp;
  cp.path = path;
  cp.client = name_;
  cp.replication = static_cast<std::uint16_t>(cfg_.replication);
  cp.block_size = cfg_.block_size;
  rpc::BooleanWritable ok;
  trace::activate(tr, ctx);
  co_await rpc_->call(nn_addr_, kCreate, cp, &ok);

  std::uint64_t remaining = nbytes;
  while (remaining > 0) {
    const std::uint64_t n = std::min(remaining, cfg_.block_size);
    trace::activate(tr, ctx);
    co_await write_block(path, n);
    remaining -= n;
  }

  // complete() polls until all blocks have at least one reported replica.
  PathParam p(path, name_);
  for (;;) {
    rpc::BooleanWritable done;
    trace::activate(tr, ctx);
    co_await rpc_->call(nn_addr_, kComplete, p, &done);
    if (done.value) break;
    co_await sim::delay(host_.sched(), sim::millis(400));  // Hadoop's retry backoff
  }
  file.end();
}

sim::Co<std::uint64_t> DFSClient::read_file(const std::string& path) {
  LocatedBlocksResult blocks =
      co_await get_block_locations(path, 0, ~0ULL);
  const net::Transport t = data_transport(data_mode_);
  std::uint64_t total = 0;
  for (const LocatedBlock& lb : blocks.blocks) {
    if (lb.locations.empty()) continue;
    const std::size_t packets = static_cast<std::size_t>(
        (lb.block.num_bytes + cfg_.packet_size - 1) / cfg_.packet_size);
    // Reader-side per-packet cost + wire from the chosen replica.
    co_await fabric_.transfer(lb.locations.front(), host_.id(), t, lb.block.num_bytes);
    co_await host_.compute(
        data_packet_recv_cost(host_.cost(), data_mode_, cfg_.packet_size) * packets);
    total += lb.block.num_bytes;
  }
  co_return total;
}

}  // namespace rpcoib::hdfs
