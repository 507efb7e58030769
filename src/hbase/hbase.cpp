#include "hbase/hbase.hpp"

#include <functional>

#include "rpc/buffers.hpp"
#include "trace/trace.hpp"

namespace rpcoib::hbase {

using sim::Co;
using sim::Task;

namespace {
const rpc::MethodKey kPut{kRegionProtocol, "put"};
const rpc::MethodKey kGet{kRegionProtocol, "get"};
}  // namespace

// ---------------------------------------------------------------------------
// RegionServer

RegionServer::RegionServer(cluster::Host& host, oib::RpcEngine& hbase_engine,
                           hdfs::HdfsCluster& hdfs, HBaseConfig cfg, int index)
    : host_(host), hbase_engine_(hbase_engine), hdfs_(hdfs), cfg_(cfg), index_(index) {
  server_ = hbase_engine_.make_server(host_, addr());
  dfs_ = hdfs_.make_client(host_, "regionserver-" + std::to_string(index_));
  register_handlers();
}

RegionServer::~RegionServer() { stop(); }

void RegionServer::start(net::Address master_addr) {
  server_->start();
  if (master_addr.host >= 0) {
    host_.sched().spawn(report_to_master(master_addr));
  }
}

sim::Task RegionServer::report_to_master(net::Address master_addr) {
  static const rpc::MethodKey kStartup{kMasterProtocol, "regionServerStartup"};
  // Master traffic rides HBase's own RPC channel, not Hadoop RPC.
  std::unique_ptr<rpc::RpcClient> master_rpc = hbase_engine_.make_client(host_);
  RegionServerStartupParam p;
  p.location.index = index_;
  p.location.host = host_.id();
  p.location.port = cfg_.rs_port;
  rpc::BooleanWritable ok;
  try {
    co_await master_rpc->call(master_addr, kStartup, p, &ok);
  } catch (const rpc::RpcTransportError&) {
    // Master unreachable at startup; a real server would retry.
  }
}
void RegionServer::stop() {
  if (server_) server_->stop();
}

sim::Co<void> RegionServer::append_wal(std::size_t bytes, trace::TraceContext ctx) {
  // Group commit: the batch's bytes go down the WAL pipeline and the
  // NameNode is consulted for the append's block bookkeeping — the
  // durability sync that puts wait on in real HBase.
  trace::TraceCollector* tr = trace::active(host_.tracer());
  trace::SpanScope wal(tr, "wal.sync", trace::Kind::kInternal, trace::Category::kDisk,
                       ctx, host_.id());
  const net::Transport t = hdfs::data_transport(hdfs_.data_mode());
  const auto dns = hdfs_.namenode().live_datanodes();
  if (!dns.empty()) {
    const auto dn = dns[static_cast<std::size_t>(index_) % dns.size()];
    co_await hbase_engine_.testbed().fabric().transfer(host_.id(), dn, t, bytes);
  }
  wal.activate();
  const bool ok = co_await dfs_->renew_lease("/hbase/wal-" + std::to_string(index_));
  (void)ok;
  wal.end();
}

sim::Task RegionServer::flush_memstore(std::uint64_t bytes, trace::TraceContext ctx) {
  // HFile flush: the full HDFS write path (create/addBlock/pipeline/
  // blockReceived/complete) — where Hadoop RPC performance bites Fig. 8.
  // The region blocks updates until the flush finishes.
  ++flushes_;
  trace::TraceCollector* tr = trace::active(host_.tracer());
  trace::SpanScope flush(tr, "memstore.flush", trace::Kind::kInternal,
                         trace::Category::kDisk, ctx, host_.id());
  flush.activate();
  co_await dfs_->write_file("/hbase/region-" + std::to_string(index_) + "/hfile-" +
                                std::to_string(flush_seq_++),
                            bytes);
  flush.end();
  flushing_ = false;
  flush_done_->set();
}

void RegionServer::register_handlers() {
  rpc::Dispatcher& d = server_->dispatcher();

  d.register_method<PutParam>(
      kRegionProtocol, "put",
      [this](const PutParam& p, const trace::TraceContext& hctx) -> Co<rpc::BooleanWritable> {
        ++puts_;
        // Region blocked while a flush is in progress.
        if (flushing_ && flush_done_) co_await flush_done_->wait();
        memstore_[p.key] = static_cast<std::uint32_t>(p.value.size());
        memstore_bytes_ += p.value.size();
        // Export the get-shaped response for this row so hot readers
        // bypass the handler. The value bytes match both the memstore and
        // the flushed-store read path, so the entry stays valid across a
        // flush.
        if (rpc::OneSidedPublisher* pub = server_->onesided()) {
          GetResult cached;
          cached.found = true;
          cached.value.assign(p.value.size(), net::Byte{0x42});
          rpc::DataOutputBuffer buf(host_.cost());
          cached.write(buf);
          pub->publish(rpc::onesided_entry_key(kRegionProtocol, "get", p.key), buf.data());
        }
        ++wal_pending_puts_;
        if (wal_pending_puts_ >= static_cast<std::uint64_t>(cfg_.wal_batch)) {
          // Group-commit leader: sync the batch to the WAL.
          const std::size_t batch = wal_pending_puts_ * (cfg_.record_bytes + 64);
          wal_pending_puts_ = 0;
          co_await append_wal(batch, hctx);
        }
        if (memstore_bytes_ >= cfg_.memstore_flush_bytes && !flushing_) {
          flushing_ = true;
          flush_done_ = std::make_unique<sim::SimEvent>(host_.sched());
          const std::uint64_t to_flush = memstore_bytes_;
          memstore_bytes_ = 0;
          for (auto& [k, v] : memstore_) store_[k] = v;
          memstore_.clear();
          host_.sched().spawn(flush_memstore(to_flush, hctx));
        }
        co_return rpc::BooleanWritable(true);
      });

  d.register_method<GetParam>(
      kRegionProtocol, "get",
      [this](const GetParam& p, const trace::TraceContext& hctx) -> Co<GetResult> {
        ++gets_;
        GetResult r;
        auto it = memstore_.find(p.key);
        if (it != memstore_.end()) {
          r.found = true;
          r.value.assign(it->second, net::Byte{0x42});
        } else {
          auto sit = store_.find(p.key);
          if (sit != store_.end()) {
            // HFile read: local disk + occasional NameNode block lookup.
            r.found = true;
            r.value.assign(sit->second, net::Byte{0x42});
            trace::TraceCollector* tr = trace::active(host_.tracer());
            const sim::Time t_disk = host_.sched().now();
            co_await host_.disk_io(sit->second + 4096);  // record + index block
            if (tr != nullptr && hctx.valid()) {
              tr->add_complete("hfile.read", trace::Kind::kInternal,
                               trace::Category::kDisk, hctx, host_.id(), t_disk,
                               host_.sched().now());
            }
            ++get_misses_;
            if (get_misses_ % static_cast<std::uint64_t>(cfg_.get_nn_interval) == 0) {
              trace::activate(tr, hctx);
              const std::string hfile = "/hbase/region-" + std::to_string(index_) + "/hfile-0";
              hdfs::LocatedBlocksResult lb =
                  co_await dfs_->get_block_locations(hfile, 0, cfg_.record_bytes);
              (void)lb;
            }
          }
        }
        co_return r;
      });
}

// ---------------------------------------------------------------------------
// HTable

HTable::HTable(cluster::Host& host, oib::RpcEngine& hbase_engine, net::Address master_addr)
    : host_(host), rpc_(hbase_engine.make_client(host)), master_addr_(master_addr) {}

HTable::HTable(cluster::Host& host, oib::RpcEngine& hbase_engine,
               std::vector<net::Address> regions)
    : host_(host), rpc_(hbase_engine.make_client(host)), regions_(std::move(regions)) {}

// Region discovery: poll the master until every region server has
// reported (mirrors hbase clients blocking on .META. availability).
sim::Co<void> HTable::ensure_regions() {
  if (!regions_.empty()) co_return;
  static const rpc::MethodKey kLocations{kMasterProtocol, "getRegionLocations"};
  rpc::NullWritable arg;
  for (;;) {
    RegionLocationsResult r;
    co_await rpc_->call(master_addr_, kLocations, arg, &r);
    if (r.complete && !r.regions.empty()) {
      for (const RegionLocation& loc : r.regions) {
        regions_.push_back(net::Address{loc.host, loc.port});
      }
      co_return;
    }
    co_await sim::delay(host_.sched(), sim::millis(100));
  }
}

net::Address HTable::region_for(const std::string& key) const {
  return regions_[std::hash<std::string>{}(key) % regions_.size()];
}

sim::Co<void> HTable::put(const std::string& key, net::ByteSpan value) {
  trace::TraceCollector* tr = trace::active(host_.tracer());
  trace::SpanScope op(tr, "hbase.put", trace::Kind::kInternal, trace::Category::kOther,
                      tr != nullptr ? tr->take_ambient() : trace::TraceContext{},
                      host_.id());
  co_await ensure_regions();
  PutParam p;
  p.key = key;
  p.value.assign(value.begin(), value.end());
  rpc::BooleanWritable ok;
  op.activate();
  co_await rpc_->call(region_for(key), kPut, p, &ok);
  op.end();
}

sim::Co<GetResult> HTable::get(const std::string& key) {
  trace::TraceCollector* tr = trace::active(host_.tracer());
  trace::SpanScope op(tr, "hbase.get", trace::Kind::kInternal, trace::Category::kOther,
                      tr != nullptr ? tr->take_ambient() : trace::TraceContext{},
                      host_.id());
  co_await ensure_regions();
  GetParam p;
  p.key = key;
  GetResult r;
  op.activate();
  co_await rpc_->call(region_for(key), kGet, p, &r);
  op.end();
  co_return r;
}

// ---------------------------------------------------------------------------
// HBaseCluster

namespace {
constexpr std::uint16_t kMasterPort = 60000;
}

HBaseCluster::HBaseCluster(oib::RpcEngine& hbase_engine, hdfs::HdfsCluster& hdfs,
                           std::vector<cluster::HostId> rs_hosts, HBaseConfig cfg)
    : hbase_engine_(hbase_engine) {
  // HMaster on the master node (co-located with the NameNode host here;
  // the paper runs it on its own node of the same class).
  master_ = std::make_unique<HMaster>(
      hbase_engine.testbed().host(hdfs.nn_addr().host), hbase_engine,
      net::Address{hdfs.nn_addr().host, kMasterPort}, static_cast<int>(rs_hosts.size()));
  int idx = 0;
  for (cluster::HostId h : rs_hosts) {
    regions_.push_back(std::make_unique<RegionServer>(hbase_engine.testbed().host(h),
                                                      hbase_engine, hdfs, cfg, idx++));
  }
}

void HBaseCluster::start() {
  master_->start();
  for (auto& r : regions_) r->start(master_->addr());
}

void HBaseCluster::stop() {
  for (auto& r : regions_) r->stop();
  master_->stop();
}

std::vector<net::Address> HBaseCluster::region_addrs() const {
  std::vector<net::Address> out;
  for (const auto& r : regions_) out.push_back(r->addr());
  return out;
}

std::unique_ptr<HTable> HBaseCluster::make_table(cluster::Host& host) {
  return std::make_unique<HTable>(host, hbase_engine_, master_->addr());
}

}  // namespace rpcoib::hbase
