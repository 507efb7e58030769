#include "hdfs/namenode.hpp"

#include <algorithm>

#include "rpc/buffers.hpp"

namespace rpcoib::hdfs {

NameNode::NameNode(cluster::Host& host, oib::RpcEngine& engine, net::Address addr,
                   HdfsConfig cfg)
    : host_(host), engine_(engine), addr_(addr), cfg_(cfg) {
  server_ = engine_.make_server(host_, addr_);
  register_handlers();
}

NameNode::~NameNode() { stop(); }

void NameNode::start() {
  if (running_) return;
  running_ = true;
  server_->start();
  host_.sched().spawn(replication_monitor());
}
void NameNode::stop() {
  running_ = false;
  if (server_) server_->stop();
}

// Scans for dead DataNodes; removes their replicas and schedules
// re-replication commands, delivered on live DataNodes' heartbeats
// (Hadoop's DNA_TRANSFER command path).
sim::Task NameNode::replication_monitor() {
  while (running_) {
    co_await sim::delay(host_.sched(), cfg_.replication_check_interval);
    if (!running_) break;
    std::vector<DatanodeId> dead;
    for (const auto& [id, info] : datanodes_) {
      if (host_.sched().now() - info.last_heartbeat > cfg_.dn_dead_after) {
        dead.push_back(id);
      }
    }
    for (DatanodeId d : dead) datanodes_.erase(d);
    if (dead.empty()) continue;
    std::set<std::string> touched;
    for (auto& [block_id, info] : block_map_) {
      const std::size_t before = info.replicas.size();
      for (DatanodeId d : dead) info.replicas.erase(d);
      if (info.replicas.size() != before && !info.path.empty()) {
        touched.insert(info.path);
      }
      if (info.replicas.empty()) continue;  // data loss; nothing to copy from
      const int want = cfg_.replication;
      if (static_cast<int>(info.replicas.size()) >= want) continue;
      // Pick targets not already holding the block.
      std::vector<DatanodeId> targets;
      for (DatanodeId cand : choose_targets(want * 2)) {
        if (!info.replicas.contains(cand)) targets.push_back(cand);
        if (static_cast<int>(info.replicas.size() + targets.size()) >= want) break;
      }
      const DatanodeId source = *info.replicas.begin();
      for (DatanodeId tgt : targets) {
        LocatedBlock lb;
        lb.block.id = block_id;
        lb.block.num_bytes = info.num_bytes;
        lb.locations = {tgt};
        pending_replications_[source].push_back(std::move(lb));
      }
    }
    for (const std::string& p : touched) republish(p);
  }
}

std::size_t NameNode::replica_count(BlockId id) const {
  auto it = block_map_.find(id);
  return it == block_map_.end() ? 0 : it->second.replicas.size();
}

std::vector<DatanodeId> NameNode::live_datanodes() const {
  std::vector<DatanodeId> out;
  for (const auto& [id, info] : datanodes_) out.push_back(id);
  return out;
}

std::uint64_t NameNode::file_length(const std::string& path) const {
  auto it = files_.find(path);
  if (it == files_.end()) return 0;
  std::uint64_t total = 0;
  for (BlockId b : it->second.blocks) {
    auto bit = block_map_.find(b);
    if (bit != block_map_.end()) total += bit->second.num_bytes;
  }
  return total;
}

std::vector<DatanodeId> NameNode::choose_targets(int n) {
  // Default placement without rack awareness: spread over live datanodes,
  // rotating the starting point and shuffling lightly for balance.
  std::vector<DatanodeId> live = live_datanodes();
  std::vector<DatanodeId> out;
  if (live.empty()) return out;
  const std::size_t count = std::min<std::size_t>(static_cast<std::size_t>(n), live.size());
  const std::size_t start = next_target_++ % live.size();
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(live[(start + i) % live.size()]);
  }
  return out;
}

void NameNode::make_file_status(const std::string& path, FileStatusResult& r) const {
  auto it = files_.find(path);
  if (it == files_.end()) return;
  r.exists = true;
  r.status.path = path;
  r.status.is_dir = it->second.is_dir;
  r.status.length = file_length(path);
  r.status.replication = it->second.replication;
  r.status.block_size = it->second.block_size;
  r.status.modification_time = it->second.mtime;
}

bool NameNode::locate_blocks(const std::string& path, std::uint64_t offset,
                             std::uint64_t length, LocatedBlocksResult& r) {
  auto it = files_.find(path);
  if (it == files_.end()) return false;
  std::uint64_t off = 0;
  for (BlockId id : it->second.blocks) {
    const BlockInfo& bi = block_map_[id];
    if (off + bi.num_bytes > offset && off < offset + length) {
      LocatedBlock lb;
      lb.block.id = id;
      lb.block.num_bytes = bi.num_bytes;
      lb.locations.assign(bi.replicas.begin(), bi.replicas.end());
      r.blocks.push_back(std::move(lb));
    }
    off += bi.num_bytes;
  }
  r.file_length = off;
  return true;
}

void NameNode::republish(const std::string& path) {
  rpc::OneSidedPublisher* pub = server_ ? server_->onesided() : nullptr;
  if (pub == nullptr) return;
  {
    FileStatusResult r;
    make_file_status(path, r);
    rpc::DataOutputBuffer out(host_.cost());
    r.write(out);
    pub->publish(rpc::onesided_entry_key(kClientProtocol, "getFileInfo", path),
                 out.data());
  }
  {
    LocatedBlocksResult r;
    rpc::DataOutputBuffer out(host_.cost());
    if (locate_blocks(path, 0, ~0ULL, r)) r.write(out);
    pub->publish(rpc::onesided_entry_key(kClientProtocol, "getBlockLocations", path),
                 out.data());
  }
}

void NameNode::register_handlers() {
  rpc::Dispatcher& d = server_->dispatcher();
  using rpc::BooleanWritable;

  // --- ClientProtocol ----------------------------------------------------
  d.register_method<PathParam>(kClientProtocol, "getFileInfo", [this](const PathParam& p) {
    FileStatusResult r;
    make_file_status(p.path, r);
    // Warm the one-sided entry so the *next* lookup of this path can
    // bypass the handler entirely.
    republish(p.path);
    return r;
  });

  d.register_method<PathParam>(kClientProtocol, "mkdirs", [this](const PathParam& p) {
    INode& node = files_[p.path];
    node.is_dir = true;
    node.mtime = sim::to_us(host_.sched().now()) / 1000;
    republish(p.path);
    return BooleanWritable(true);
  });

  d.register_method<CreateParam>(kClientProtocol, "create", [this](const CreateParam& p) {
    if (files_.contains(p.path) && !p.overwrite) {
      throw std::runtime_error("file exists: " + p.path);
    }
    INode node;
    node.is_dir = false;
    node.replication = p.replication;
    node.block_size = p.block_size;
    node.under_construction = true;
    node.lease_holder = p.client;
    node.mtime = sim::to_us(host_.sched().now()) / 1000;
    files_[p.path] = std::move(node);
    republish(p.path);
    return BooleanWritable(true);
  });

  d.register_method<AddBlockParam>(kClientProtocol, "addBlock", [this](const AddBlockParam& p) {
    auto it = files_.find(p.path);
    if (it == files_.end()) throw std::runtime_error("no such file");
    LocatedBlockResult r;
    r.located.block.id = next_block_id_++;
    r.located.block.num_bytes = 0;
    r.located.locations = choose_targets(it->second.replication);
    if (r.located.locations.empty()) throw std::runtime_error("no datanodes available");
    it->second.blocks.push_back(r.located.block.id);
    BlockInfo bi;
    bi.path = p.path;
    block_map_[r.located.block.id] = std::move(bi);
    republish(p.path);
    return r;
  });

  d.register_method<AbandonBlockParam>(
      kClientProtocol, "abandonBlock", [this](const AbandonBlockParam& p) {
        auto it = files_.find(p.path);
        if (it != files_.end()) std::erase(it->second.blocks, p.block);
        block_map_.erase(p.block);
        republish(p.path);
        return BooleanWritable(true);
      });

  d.register_method<PathParam>(kClientProtocol, "complete", [this](const PathParam& p) {
    auto it = files_.find(p.path);
    bool done = false;
    if (it != files_.end()) {
      // Like Hadoop: complete succeeds once every block has at least one
      // reported replica.
      done = true;
      for (BlockId b : it->second.blocks) {
        if (replica_count(b) == 0) done = false;
      }
      if (done) it->second.under_construction = false;
    }
    if (done) republish(p.path);
    return BooleanWritable(done);
  });

  d.register_method<PathParam>(kClientProtocol, "renewLease",
                               [](const PathParam&) { return BooleanWritable(true); });

  d.register_method<GetBlockLocationsParam>(
      kClientProtocol, "getBlockLocations", [this](const GetBlockLocationsParam& p) {
        LocatedBlocksResult r;
        if (!locate_blocks(p.path, p.offset, p.length, r)) {
          throw std::runtime_error("no such file");
        }
        republish(p.path);
        return r;
      });

  d.register_method<PathParam>(kClientProtocol, "getListing", [this](const PathParam& p) {
    ListingResult r;
    const std::string prefix = p.path.back() == '/' ? p.path : p.path + "/";
    for (const auto& [path, node] : files_) {
      if (path.size() > prefix.size() && path.starts_with(prefix) &&
          path.find('/', prefix.size()) == std::string::npos) {
        FileStatus st;
        st.path = path;
        st.is_dir = node.is_dir;
        st.length = file_length(path);
        st.replication = node.replication;
        st.block_size = node.block_size;
        r.entries.push_back(std::move(st));
      }
    }
    return r;
  });

  d.register_method<RenameParam>(kClientProtocol, "rename", [this](const RenameParam& p) {
    auto it = files_.find(p.src);
    bool ok = false;
    if (it != files_.end() && !files_.contains(p.dst)) {
      files_[p.dst] = std::move(it->second);
      files_.erase(it);
      ok = true;
      for (BlockId b : files_[p.dst].blocks) block_map_[b].path = p.dst;
      republish(p.src);
      republish(p.dst);
    }
    return BooleanWritable(ok);
  });

  d.register_method<PathParam>(kClientProtocol, "delete", [this](const PathParam& p) {
    bool ok = false;
    auto it = files_.find(p.path);
    if (it != files_.end()) {
      for (BlockId b : it->second.blocks) block_map_.erase(b);
      files_.erase(it);
      ok = true;
    }
    // Recursive delete of children for directories.
    const std::string prefix = p.path + "/";
    std::vector<std::string> removed;
    for (auto cit = files_.begin(); cit != files_.end();) {
      if (cit->first.starts_with(prefix)) {
        for (BlockId b : cit->second.blocks) block_map_.erase(b);
        removed.push_back(cit->first);
        cit = files_.erase(cit);
        ok = true;
      } else {
        ++cit;
      }
    }
    republish(p.path);
    for (const std::string& child : removed) republish(child);
    return BooleanWritable(ok);
  });

  // --- DatanodeProtocol ---------------------------------------------------
  d.register_method<DatanodeRegistration>(
      kDatanodeProtocol, "register", [this](const DatanodeRegistration& p) {
        DatanodeInfo& info = datanodes_[p.id];
        info.capacity = p.capacity_bytes;
        info.last_heartbeat = host_.sched().now();
        return BooleanWritable(true);
      });

  d.register_method<HeartbeatParam>(
      kDatanodeProtocol, "sendHeartbeat", [this](const HeartbeatParam& p) {
        auto it = datanodes_.find(p.id);
        if (it != datanodes_.end()) {
          it->second.used = p.used_bytes;
          it->second.last_heartbeat = host_.sched().now();
        }
        HeartbeatResult r;
        auto pit = pending_replications_.find(p.id);
        if (pit != pending_replications_.end() && !pit->second.empty()) {
          r.command = 1;
          r.replicate_target = pit->second.back();
          pit->second.pop_back();
          if (pit->second.empty()) pending_replications_.erase(pit);
        }
        return r;
      });

  d.register_method<BlockReceivedParam>(
      kDatanodeProtocol, "blockReceived", [this](const BlockReceivedParam& p) {
        BlockInfo& bi = block_map_[p.block.id];
        bi.num_bytes = p.block.num_bytes;
        bi.replicas.insert(p.id);
        if (!bi.path.empty()) republish(bi.path);
        return BooleanWritable(true);
      });

  d.register_method<BlockReportParam>(
      kDatanodeProtocol, "blockReport", [this](const BlockReportParam& p) {
        std::set<std::string> touched;
        for (const Block& b : p.blocks) {
          auto it = block_map_.find(b.id);
          if (it != block_map_.end()) {
            it->second.replicas.insert(p.id);
            it->second.num_bytes = b.num_bytes;
            if (!it->second.path.empty()) touched.insert(it->second.path);
          }
        }
        for (const std::string& path : touched) republish(path);
        return BooleanWritable(true);
      });
}

}  // namespace rpcoib::hdfs
