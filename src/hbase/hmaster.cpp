#include "hbase/hmaster.hpp"

namespace rpcoib::hbase {

HMaster::HMaster(cluster::Host& host, oib::RpcEngine& engine, net::Address addr,
                 int expected_region_servers)
    : host_(host), addr_(addr), expected_(expected_region_servers) {
  server_ = engine.make_server(host_, addr_);
  register_handlers();
}

HMaster::~HMaster() { stop(); }

void HMaster::start() { server_->start(); }
void HMaster::stop() {
  if (server_) server_->stop();
}

void HMaster::register_handlers() {
  rpc::Dispatcher& d = server_->dispatcher();

  d.register_method<RegionServerStartupParam>(
      kMasterProtocol, "regionServerStartup", [this](const RegionServerStartupParam& p) {
        regions_[p.location.index] = p.location;
        return rpc::BooleanWritable(true);
      });

  d.register_method<rpc::NullWritable>(
      kMasterProtocol, "getRegionLocations", [this](const rpc::NullWritable&) {
        RegionLocationsResult r;
        r.complete = static_cast<int>(regions_.size()) >= expected_;
        for (const auto& [idx, loc] : regions_) r.regions.push_back(loc);
        return r;
      });
}

}  // namespace rpcoib::hbase
