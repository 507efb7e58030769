#include "hdfs/datanode.hpp"

namespace rpcoib::hdfs {

using sim::Co;
using sim::Task;

namespace {
const rpc::MethodKey kRegister{kDatanodeProtocol, "register"};
const rpc::MethodKey kSendHeartbeat{kDatanodeProtocol, "sendHeartbeat"};
const rpc::MethodKey kBlockReceived{kDatanodeProtocol, "blockReceived"};
const rpc::MethodKey kBlockReport{kDatanodeProtocol, "blockReport"};
}  // namespace

DataNode::DataNode(cluster::Host& host, oib::RpcEngine& engine, net::Address nn_addr,
                   HdfsConfig cfg)
    : host_(host),
      engine_(engine),
      nn_addr_(nn_addr),
      cfg_(cfg),
      rpc_(engine.make_client(host)) {}

DataNode::~DataNode() { stop(); }

void DataNode::start() {
  if (running_) return;
  running_ = true;
  if (engine_.config().stream.enabled) {
    // Fresh hub per start: a stopped hub cannot listen again, and restart
    // tests bring nodes back after chaos kills them.
    stream_hub_ = std::make_unique<oib::stream::StreamHub>(
        host_, engine_.testbed().sockets(), engine_.verbs(), engine_.config().stream,
        engine_.config().pool);
    stream_hub_->listen({id(), oib::stream::kHdfsStreamPort},
                        [this](oib::stream::StreamReaderPtr r, net::Bytes meta) {
                          return stream_ingest(std::move(r), std::move(meta));
                        });
  }
  host_.sched().spawn(heartbeat_loop());
  host_.sched().spawn(block_report_loop());
}

void DataNode::stop() {
  running_ = false;
  if (stream_hub_ != nullptr) stream_hub_->stop();
}

sim::Task DataNode::heartbeat_loop() {
  // Register first, then heartbeat every cfg_.heartbeat_interval.
  try {
    DatanodeRegistration reg;
    reg.id = id();
    reg.capacity_bytes = 2ULL << 40;
    rpc::BooleanWritable ok;
    co_await rpc_->call(nn_addr_, kRegister, reg, &ok);
    while (running_) {
      co_await sim::delay(host_.sched(), cfg_.heartbeat_interval);
      if (!running_) break;
      HeartbeatParam hb;
      hb.id = id();
      hb.used_bytes = used_;
      hb.remaining_bytes = reg.capacity_bytes - used_;
      hb.xceiver_count = 0;
      HeartbeatResult r;
      co_await rpc_->call(nn_addr_, kSendHeartbeat, hb, &r);
      if (r.command == 1) {
        host_.sched().spawn(replicate_block(r.replicate_target));
      }
    }
  } catch (const rpc::RpcTransportError&) {
    // NameNode went away; daemon exits.
  } catch (const rpc::RemoteException&) {
  }
}

sim::Task DataNode::block_report_loop() {
  try {
    while (running_) {
      co_await sim::delay(host_.sched(), cfg_.block_report_interval);
      if (!running_) break;
      BlockReportParam p;
      p.id = id();
      p.blocks.reserve(blocks_.size());
      for (const auto& [bid, bytes] : blocks_) p.blocks.push_back(Block{bid, bytes});
      rpc::BooleanWritable ok;
      co_await rpc_->call(nn_addr_, kBlockReport, p, &ok);
    }
  } catch (const rpc::RpcTransportError&) {
  } catch (const rpc::RemoteException&) {
  }
}

// DNA_TRANSFER: stream a local block to the target datanode, which then
// reports blockReceived, restoring the replication factor.
sim::Task DataNode::replicate_block(LocatedBlock cmd) {
  if (peer_lookup_ == nullptr || cmd.locations.empty()) co_return;
  DataNode* target = peer_lookup_(cmd.locations.front());
  if (target == nullptr || !blocks_.contains(cmd.block.id)) co_return;
  co_await send_block(cmd.block, *target);
}

sim::Task DataNode::stream_ingest(oib::stream::StreamReaderPtr r, net::Bytes meta) {
  StreamBlockMeta m;
  if (!net::decode_frame(meta, m)) {
    const std::string why = "bad stream meta";
    co_await r->abort(why);
    co_return;
  }
  // Open the downstream leg as a stream too, so chunk k forwards while
  // chunk k+1 is still arriving. A refusal (capped pool, no listener)
  // falls back to a one-shot forward once the whole block has landed.
  oib::stream::StreamWriterPtr fwd;
  if (!m.downstream.empty() && stream_hub_ != nullptr) {
    StreamBlockMeta dm;
    dm.block = m.block;
    dm.downstream.assign(m.downstream.begin() + 1, m.downstream.end());
    fwd = co_await stream_hub_->open(
        {m.downstream.front(), oib::stream::kHdfsStreamPort},
        net::encode_frame(dm), m.block.num_bytes);
  }
  bool ok = false;  // co_await is not allowed inside a handler
  std::string why;
  try {
    const sim::Dur per_pkt =
        data_packet_recv_cost(host_.cost(), DataMode::kRdma, cfg_.packet_size);
    const std::uint64_t nchunks = r->num_chunks();
    for (std::uint64_t i = 0; i < nchunks; ++i) {
      oib::stream::Chunk c = co_await r->next_chunk();
      const std::size_t pkts =
          (c.payload.size() + cfg_.packet_size - 1) / cfg_.packet_size;
      co_await host_.compute(per_pkt * pkts);
      // Relay the chunk as it landed: a pattern keeps its own seed.
      if (fwd != nullptr) co_await fwd->write_chunk(c.payload);
      co_await r->release_chunk(c.seq);
    }
    std::uint8_t status = 0;
    if (fwd != nullptr) {
      status = co_await fwd->close();
      fwd = nullptr;
    } else if (!m.downstream.empty()) {
      co_await forward_block_legacy(m.block, m.downstream);
    }
    if (status == 0) co_await land_block(m.block);
    co_await r->finish(status);
    ok = true;
  } catch (const std::exception& e) {
    why = e.what();
  }
  if (!ok) {
    // Tear down both directions; abort() is a no-op on an already-closed
    // stream and skips the wire on an already-failed one, so the failure's
    // origin doesn't matter here.
    if (fwd != nullptr) co_await fwd->abort(why);
    co_await r->abort(why);
  }
}

sim::Co<void> DataNode::forward_block_legacy(Block b, std::vector<DatanodeId> targets) {
  // Mirror of replicate_block: replay the block to each remaining pipeline
  // member over the socket path.
  for (DatanodeId target : targets) {
    DataNode* peer = peer_lookup_ != nullptr ? peer_lookup_(target) : nullptr;
    if (peer == nullptr) {
      if (cfg_.pipeline_retries > 0) {
        throw rpc::RpcTransportError("stream pipeline datanode " +
                                     std::to_string(target) + " lost for block " +
                                     std::to_string(b.id));
      }
      continue;  // legacy: under-replicate silently
    }
    co_await send_block(b, *peer);
  }
}

sim::Co<void> DataNode::send_block(Block b, DataNode& peer) {
  // Sender-side read + stream, then the wire, then the peer's normal
  // block-ingest path (receive costs + blockReceived to the NameNode).
  const std::size_t packets = (b.num_bytes + cfg_.packet_size - 1) / cfg_.packet_size;
  co_await host_.compute(
      data_packet_send_cost(host_.cost(), DataMode::kSocketIPoIB, cfg_.packet_size) *
      packets);
  co_await engine_.testbed().fabric().transfer(host_.id(), peer.host().id(),
                                               net::Transport::kIPoIB, b.num_bytes);
  co_await peer.store_block(b, DataMode::kSocketIPoIB);
}

sim::Co<void> DataNode::land_block(Block b) {
  if (cfg_.datanode_disk_writes) co_await host_.disk_io(b.num_bytes);
  blocks_[b.id] = b.num_bytes;
  used_ += b.num_bytes;
  BlockReceivedParam p;
  p.id = id();
  p.block = b;
  rpc::BooleanWritable ok;
  co_await rpc_->call(nn_addr_, kBlockReceived, p, &ok);
}

sim::Co<void> DataNode::store_block(Block b, DataMode mode) {
  // Per-packet receive costs for the whole block (checksum verify + copy
  // to the block file; page cache at benchmark scale, per the testbed).
  const std::size_t packets =
      (b.num_bytes + cfg_.packet_size - 1) / cfg_.packet_size;
  const sim::Dur per_pkt = data_packet_recv_cost(host_.cost(), mode, cfg_.packet_size);
  co_await host_.compute(per_pkt * packets);
  co_await land_block(b);
}

}  // namespace rpcoib::hdfs
