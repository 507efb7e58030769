// HDFS data model and protocol message writables.
//
// A compact port of the Hadoop 0.20.2 structures the paper's workloads
// exercise: blocks, located blocks, file status, datanode registration,
// plus the Writable request/response payloads for ClientProtocol and
// DatanodeProtocol — the protocols whose calls populate Table I.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/socket.hpp"
#include "rpc/writable.hpp"

namespace rpcoib::hdfs {

/// Protocol names exactly as Table I reports them.
inline constexpr const char* kClientProtocol = "hdfs.ClientProtocol";
inline constexpr const char* kDatanodeProtocol = "hdfs.DatanodeProtocol";

using BlockId = std::uint64_t;
using DatanodeId = std::int32_t;  // host id of the datanode

struct HdfsConfig {
  std::uint64_t block_size = 64ULL << 20;  // dfs.block.size (0.20 default)
  int replication = 3;                     // dfs.replication
  sim::Dur heartbeat_interval = sim::seconds(3);
  sim::Dur block_report_interval = sim::seconds(60);
  /// Data-transfer pipeline packet size (dfs packet, 64 KB in 0.20).
  std::size_t packet_size = 64 * 1024;
  /// Client<->NameNode synchronization rounds per written block beyond
  /// addBlock itself (pipeline recovery checks, persistBlocks-style
  /// bookkeeping, lease/queue coordination). Calibrated so the RPC share
  /// of HDFS Write matches Fig. 7; see EXPERIMENTS.md.
  int nn_syncs_per_block = 160;
  /// When true, DataNodes pay HDD time for stored blocks (MapReduce-scale
  /// datasets exceed the page cache); false models the paper's Fig. 7
  /// microbenchmark where 24 GB-RAM nodes absorb writes in cache.
  bool datanode_disk_writes = false;
  /// A DataNode whose last heartbeat is older than this is declared dead
  /// and its blocks re-replicated. (Hadoop's default is 10.5 min; scaled
  /// down so failure tests run in simulated seconds.)
  sim::Dur dn_dead_after = sim::seconds(30);
  /// How often the NameNode scans for dead DataNodes / under-replication.
  sim::Dur replication_check_interval = sim::seconds(10);
  /// Write-pipeline recovery: when a pipeline DataNode disappears
  /// mid-block, abandon the block and retry addBlock up to this many
  /// times (0 = legacy behavior, dead nodes silently skipped).
  int pipeline_retries = 0;
  /// Wait between pipeline retries (fresh targets need the NameNode to
  /// notice the dead node or pick around it).
  sim::Dur pipeline_retry_backoff = sim::millis(400);
};

/// Block with generation stamp (simplified).
struct Block {
  BlockId id = 0;
  std::uint64_t num_bytes = 0;

  template <typename IO>
  void fields(IO& io) {
    io.u64(id).u64(num_bytes);
  }
  void write(rpc::DataOutput& out) const { rpc::FieldWriter(out).nested(*this); }
  void read_fields(rpc::DataInput& in) { rpc::FieldReader(in).nested(*this); }
};

/// A block plus the datanodes holding it.
struct LocatedBlock {
  Block block;
  std::vector<DatanodeId> locations;

  template <typename IO>
  void fields(IO& io) {
    io.nested(block).list(locations, [](auto& io, auto& d) { io.vi32(d); });
  }
  void write(rpc::DataOutput& out) const { rpc::FieldWriter(out).nested(*this); }
  void read_fields(rpc::DataInput& in) { rpc::FieldReader(in).nested(*this); }
};

struct FileStatus {
  std::string path;
  bool is_dir = false;
  std::uint64_t length = 0;
  std::uint16_t replication = 0;
  std::uint64_t block_size = 0;
  std::uint64_t modification_time = 0;

  template <typename IO>
  void fields(IO& io) {
    io.text(path).boolean(is_dir).u64(length).u16(replication).u64(block_size);
    io.u64(modification_time);
  }
  void write(rpc::DataOutput& out) const { rpc::FieldWriter(out).nested(*this); }
  void read_fields(rpc::DataInput& in) { rpc::FieldReader(in).nested(*this); }
};

// --- Protocol payloads -----------------------------------------------------

/// Generic single-path request (getFileInfo, mkdirs, delete, getListing...).
struct PathParam final : rpc::Message<PathParam> {
  std::string path;
  std::string client;
  PathParam() = default;
  PathParam(std::string p, std::string c) : path(std::move(p)), client(std::move(c)) {}
  template <typename IO>
  void fields(IO& io) {
    io.text(path).text(client);
  }
  /// getFileInfo is the NameNode's hot read-mostly lookup: eligible for the
  /// one-sided read plane, keyed by path. Every other PathParam method
  /// (mkdirs, delete, getListing, ...) mutates or scans — RPC only.
  std::optional<std::string> onesided_key(const std::string& protocol,
                                          const std::string& method) const override {
    if (protocol == kClientProtocol && method == "getFileInfo") return path;
    return std::nullopt;
  }
};

struct RenameParam final : rpc::Message<RenameParam> {
  std::string src, dst;
  template <typename IO>
  void fields(IO& io) {
    io.text(src).text(dst);
  }
};

struct CreateParam final : rpc::Message<CreateParam> {
  std::string path;
  std::string client;
  bool overwrite = true;
  std::uint16_t replication = 3;
  std::uint64_t block_size = 64ULL << 20;
  template <typename IO>
  void fields(IO& io) {
    io.text(path).text(client).boolean(overwrite).u16(replication).u64(block_size);
  }
};

struct GetBlockLocationsParam final : rpc::Message<GetBlockLocationsParam> {
  std::string path;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  template <typename IO>
  void fields(IO& io) {
    io.text(path).u64(offset).u64(length);
  }
  /// Whole-file location lookups (the DFSClient read path asks for
  /// [0, ~0)) are what the NameNode exports; ranged queries vary by
  /// offset/length and stay on RPC.
  std::optional<std::string> onesided_key(const std::string& protocol,
                                          const std::string& method) const override {
    if (protocol == kClientProtocol && method == "getBlockLocations" && offset == 0 &&
        length == ~0ULL) {
      return path;
    }
    return std::nullopt;
  }
};

struct LocatedBlocksResult final : rpc::Message<LocatedBlocksResult> {
  std::uint64_t file_length = 0;
  std::vector<LocatedBlock> blocks;
  template <typename IO>
  void fields(IO& io) {
    io.u64(file_length).list(blocks);
  }
};

struct LocatedBlockResult final : rpc::Message<LocatedBlockResult> {
  LocatedBlock located;
  template <typename IO>
  void fields(IO& io) {
    io.nested(located);
  }
};

struct FileStatusResult final : rpc::Message<FileStatusResult> {
  bool exists = false;
  FileStatus status;
  template <typename IO>
  void fields(IO& io) {
    io.boolean(exists);
    if (exists) io.nested(status);
  }
};

struct ListingResult final : rpc::Message<ListingResult> {
  std::vector<FileStatus> entries;
  template <typename IO>
  void fields(IO& io) {
    io.list(entries);
  }
};

// --- DatanodeProtocol payloads ----------------------------------------------

struct DatanodeRegistration final : rpc::Message<DatanodeRegistration> {
  DatanodeId id = -1;
  std::uint64_t capacity_bytes = 0;
  template <typename IO>
  void fields(IO& io) {
    io.vi32(id).u64(capacity_bytes);
  }
};

struct HeartbeatParam final : rpc::Message<HeartbeatParam> {
  DatanodeId id = -1;
  std::uint64_t used_bytes = 0;
  std::uint64_t remaining_bytes = 0;
  std::uint32_t xceiver_count = 0;
  template <typename IO>
  void fields(IO& io) {
    io.vi32(id).u64(used_bytes).u64(remaining_bytes).u32(xceiver_count);
  }
};

/// Heartbeat response can carry commands (e.g. replicate block).
struct HeartbeatResult final : rpc::Message<HeartbeatResult> {
  // command 0 = none, 1 = replicate
  std::uint8_t command = 0;
  LocatedBlock replicate_target;
  template <typename IO>
  void fields(IO& io) {
    io.u8(command);
    if (command == 1) io.nested(replicate_target);
  }
};

struct BlockReceivedParam final : rpc::Message<BlockReceivedParam> {
  DatanodeId id = -1;
  Block block;
  template <typename IO>
  void fields(IO& io) {
    io.vi32(id).nested(block);
  }
};

struct BlockReportParam final : rpc::Message<BlockReportParam> {
  DatanodeId id = -1;
  std::vector<Block> blocks;
  template <typename IO>
  void fields(IO& io) {
    io.vi32(id).list(blocks);
  }
};

struct AddBlockParam final : rpc::Message<AddBlockParam> {
  std::string path;
  std::string client;
  template <typename IO>
  void fields(IO& io) {
    io.text(path).text(client);
  }
};

/// abandonBlock: drop a block whose pipeline failed so the file can
/// complete once its remaining blocks are reported.
struct AbandonBlockParam final : rpc::Message<AbandonBlockParam> {
  std::string path;
  std::string client;
  BlockId block = 0;
  template <typename IO>
  void fields(IO& io) {
    io.text(path).text(client).u64(block);
  }
};

}  // namespace rpcoib::hdfs
