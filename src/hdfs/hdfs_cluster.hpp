// Convenience wiring: NameNode + DataNodes on a testbed, the shape every
// integrated experiment (Figs. 6-8) starts from.
#pragma once

#include <memory>
#include <vector>

#include "hdfs/dfs_client.hpp"

namespace rpcoib::hdfs {

class HdfsCluster : public DatanodeResolver {
 public:
  /// NameNode on `nn_host`; one DataNode on each host in `dn_hosts`.
  HdfsCluster(oib::RpcEngine& engine, cluster::HostId nn_host,
              std::vector<cluster::HostId> dn_hosts, DataMode data_mode,
              HdfsConfig cfg = {});

  /// Starts daemons. Run the scheduler briefly afterwards (or rely on the
  /// first client op) so registrations land before writes begin.
  void start();
  void stop();

  /// Resolves to the daemon only while it is running: a stopped DataNode
  /// is invisible, exactly like a crashed node — the write pipeline sees
  /// nullptr and (with pipeline_retries > 0) re-requests the block.
  DataNode* datanode(DatanodeId id) override;

  /// Any DataNode object by id, running or not (tests restart/stop nodes).
  DataNode* datanode_object(DatanodeId id);

  std::unique_ptr<DFSClient> make_client(cluster::Host& host, std::string name);

  NameNode& namenode() { return *nn_; }
  const net::Address& nn_addr() const { return nn_addr_; }
  DataMode data_mode() const { return data_mode_; }
  const HdfsConfig& config() const { return cfg_; }

 private:
  oib::RpcEngine& engine_;
  net::Address nn_addr_;
  DataMode data_mode_;
  HdfsConfig cfg_;
  std::unique_ptr<NameNode> nn_;
  std::vector<std::unique_ptr<DataNode>> dns_;
};

}  // namespace rpcoib::hdfs
