// HDFS data-transfer path model.
//
// The block pipeline (client -> DN1 -> DN2 -> DN3) is a DATA path, not an
// RPC path; the paper's integrated experiments switch it independently:
//   socket data path over 1GigE / IPoIB  — stock HDFS,
//   RDMA data path                        — HDFSoIB [6].
// Per-packet (64 KB) host costs mirror the RPC layer's findings: the
// socket path pays JVM allocation + copies + kernel crossings per packet;
// the RDMA path pays a pooled-buffer copy and a doorbell.
#pragma once

#include <vector>

#include "cluster/cost_model.hpp"
#include "net/bytes.hpp"
#include "net/frame.hpp"
#include "net/params.hpp"
#include "hdfs/types.hpp"

namespace rpcoib::hdfs {

enum class DataMode {
  kSocket1GigE,
  kSocketIPoIB,
  kRdma,  // HDFSoIB
};

inline const char* data_mode_name(DataMode m) {
  switch (m) {
    case DataMode::kSocket1GigE: return "HDFS(1GigE)";
    case DataMode::kSocketIPoIB: return "HDFS(IPoIB)";
    case DataMode::kRdma: return "HDFSoIB";
  }
  return "?";
}

inline net::Transport data_transport(DataMode m) {
  switch (m) {
    case DataMode::kSocket1GigE: return net::Transport::kOneGigE;
    case DataMode::kSocketIPoIB: return net::Transport::kIPoIB;
    case DataMode::kRdma: return net::Transport::kIBVerbs;
  }
  return net::Transport::kOneGigE;
}

/// Sender-side CPU per data packet.
inline sim::Dur data_packet_send_cost(const cluster::CostModel& cm, DataMode m,
                                      std::size_t pkt) {
  if (m == DataMode::kRdma) {
    // Copy into a pre-registered pooled buffer + doorbell (one JNI).
    return cm.direct_copy(pkt) + cm.jni_call();
  }
  // DFSOutputStream: packet heap buffer + checksum copy + heap->native +
  // syscall.
  return cm.heap_alloc(pkt) + cm.heap_copy(pkt) + cm.native_copy(pkt) + cm.syscall();
}

/// Receiver-side CPU per data packet (each pipeline datanode pays this;
/// intermediate nodes also pay the send cost to forward).
inline sim::Dur data_packet_recv_cost(const cluster::CostModel& cm, DataMode m,
                                      std::size_t pkt) {
  if (m == DataMode::kRdma) {
    return cm.jni_call() + cm.direct_copy(pkt);
  }
  return cm.heap_alloc(pkt) + cm.native_copy(pkt) + cm.syscall();
}

/// Pipeline metadata riding the kStreamOpen frame when the block pipeline
/// takes the streamed data path: the block being written plus the replicas
/// that still need it after the receiving datanode (which forwards chunk k
/// downstream while chunk k+1 is arriving).
/// Layout: [u64 block_id][u64 num_bytes][u8 ndownstream][u64 datanode_id]*,
/// little-endian; a datanode id is its u32 zero-extended.
struct StreamBlockMeta {
  Block block{};
  std::vector<DatanodeId> downstream;

  template <typename IO>
  void fields(IO& io) {
    io.u64(block.id).u64(block.num_bytes).list8(downstream, [](IO& e, DatanodeId& d) {
      e.u32(d).pad(4);
    });
  }
};

}  // namespace rpcoib::hdfs
