// HMaster: HBase's master daemon.
//
// Runs on its own node (as in the paper's Fig. 8 setup: "The master node,
// HMaster, runs on a separate node"). Region servers report in over
// HMasterInterface at startup; clients fetch the region map from the
// master before their first operation — so region discovery is real RPC
// traffic, not wiring.
#pragma once

#include <map>
#include <memory>

#include "hdfs/types.hpp"
#include "rpc/rpc.hpp"
#include "rpcoib/engine.hpp"

namespace rpcoib::hbase {

inline constexpr const char* kMasterProtocol = "hbase.HMasterInterface";

struct RegionLocation {
  std::int32_t index = -1;
  std::int32_t host = -1;
  std::uint16_t port = 0;

  template <typename IO>
  void fields(IO& io) {
    io.vi32(index).vi32(host).u16(port);
  }
  void write(rpc::DataOutput& out) const { rpc::FieldWriter(out).nested(*this); }
  void read_fields(rpc::DataInput& in) { rpc::FieldReader(in).nested(*this); }
};

struct RegionServerStartupParam final : rpc::Message<RegionServerStartupParam> {
  RegionLocation location;
  template <typename IO>
  void fields(IO& io) {
    io.nested(location);
  }
};

struct RegionLocationsResult final : rpc::Message<RegionLocationsResult> {
  bool complete = false;  // all expected region servers have reported
  std::vector<RegionLocation> regions;

  template <typename IO>
  void fields(IO& io) {
    io.boolean(complete).list(regions);
  }
};

class HMaster {
 public:
  HMaster(cluster::Host& host, oib::RpcEngine& engine, net::Address addr,
          int expected_region_servers);
  ~HMaster();
  HMaster(const HMaster&) = delete;
  HMaster& operator=(const HMaster&) = delete;

  void start();
  void stop();

  const net::Address& addr() const { return addr_; }
  std::size_t registered_regions() const { return regions_.size(); }

 private:
  void register_handlers();

  cluster::Host& host_;
  net::Address addr_;
  int expected_;
  std::unique_ptr<rpc::RpcServer> server_;
  std::map<std::int32_t, RegionLocation> regions_;
};

}  // namespace rpcoib::hbase
