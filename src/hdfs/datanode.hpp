// DataNode: block storage daemon.
//
// Registers with the NameNode, heartbeats every 3 s, sends periodic block
// reports, stores pipeline blocks (page-cache write at benchmark scale,
// like the paper's 24 GB-RAM nodes absorbing 64 MB blocks), and reports
// each received block via DatanodeProtocol.blockReceived — the exact
// call whose ~430-byte size locality the paper highlights in Section III-C.
#pragma once

#include <functional>
#include <map>
#include <memory>

#include "hdfs/data_transfer.hpp"
#include "hdfs/types.hpp"
#include "rpc/rpc.hpp"
#include "rpcoib/engine.hpp"

namespace rpcoib::hdfs {

class DataNodeResolver;

class DataNode {
 public:
  DataNode(cluster::Host& host, oib::RpcEngine& engine, net::Address nn_addr,
           HdfsConfig cfg);

  /// Wire up peer lookup (set by HdfsCluster) so replicate commands can
  /// deliver blocks to their targets.
  using PeerLookup = std::function<DataNode*(DatanodeId)>;
  void set_peer_lookup(PeerLookup fn) { peer_lookup_ = std::move(fn); }
  ~DataNode();
  DataNode(const DataNode&) = delete;
  DataNode& operator=(const DataNode&) = delete;

  /// Register with the NameNode and start heartbeat/block-report loops.
  void start();
  void stop();
  bool running() const { return running_; }

  /// Pipeline delivery: account receive costs, store the block, notify the
  /// NameNode (blockReceived). Called by the data-transfer pipeline once
  /// the block's bytes have arrived at this node.
  sim::Co<void> store_block(Block b, DataMode mode);

  cluster::Host& host() const { return host_; }
  DatanodeId id() const { return host_.id(); }
  std::size_t num_blocks() const { return blocks_.size(); }
  bool has_block(BlockId id) const { return blocks_.contains(id); }
  std::uint64_t used_bytes() const { return used_; }
  rpc::RpcClient& rpc() { return *rpc_; }

  /// Bulk-stream endpoint, for stats inspection; null when streaming is
  /// disabled or the node has not been started with it.
  oib::stream::StreamHub* stream_hub() { return stream_hub_.get(); }

 private:
  sim::Task heartbeat_loop();
  sim::Task block_report_loop();
  sim::Task replicate_block(LocatedBlock cmd);
  /// Inbound streamed block: consume chunks from the ring, forwarding each
  /// one downstream (chunk k forwards while k+1 is arriving) before
  /// releasing its slot, then store and report the block.
  sim::Task stream_ingest(oib::stream::StreamReaderPtr r, net::Bytes meta);
  /// One-shot forward to the remaining pipeline members when the next hop
  /// refused or cannot take a stream.
  sim::Co<void> forward_block_legacy(Block b, std::vector<DatanodeId> targets);
  /// Socket-path send of a local block to `peer`: send CPU, the wire, then
  /// the peer's store_block.
  sim::Co<void> send_block(Block b, DataNode& peer);
  /// Tail of every block ingest once receive CPU is charged (by
  /// store_block, or per chunk by a streamed ingest): disk write + catalog
  /// + blockReceived.
  sim::Co<void> land_block(Block b);

  cluster::Host& host_;
  oib::RpcEngine& engine_;
  net::Address nn_addr_;
  HdfsConfig cfg_;
  std::unique_ptr<rpc::RpcClient> rpc_;
  /// Bulk-stream endpoint (block ingest listener + downstream forwarding);
  /// created per start() when streaming is enabled, stopped with the node.
  std::unique_ptr<oib::stream::StreamHub> stream_hub_;
  PeerLookup peer_lookup_;
  std::map<BlockId, std::uint64_t> blocks_;
  std::uint64_t used_ = 0;
  bool running_ = false;
};

}  // namespace rpcoib::hdfs
