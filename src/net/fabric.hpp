// The switched fabric connecting simulated hosts.
//
// Models what matters at the paper's scale: per-host, per-transport egress
// serialization (a NIC can only push one frame at a time) plus a one-way
// switch latency. Both testbeds in the paper are single-switch, so one hop
// is exact, not an approximation.
#pragma once

#include <cstddef>
#include <map>
#include <vector>

#include "cluster/host.hpp"
#include "net/params.hpp"
#include "sim/scheduler.hpp"
#include "sim/task.hpp"

namespace rpcoib::net {

class FaultPlan;

class Fabric {
 public:
  Fabric(sim::Scheduler& sched, std::size_t num_hosts);

  void set_params(Transport t, NetParams p);
  const NetParams& params(Transport t) const;

  /// Attach a deterministic fault-injection plan (null detaches). The plan
  /// is consulted on every delivery; reliable paths (deliver_flow,
  /// transfer) pay faults as retransmission delay while one-shot
  /// deliveries (deliver) can be truly lost. See net/fault.hpp.
  void set_fault_plan(FaultPlan* plan) { fault_ = plan; }
  FaultPlan* fault_plan() const { return fault_; }

  /// Reserve the src egress link for `bytes`; returns the virtual time the
  /// last byte leaves the NIC.
  sim::Time reserve_egress(cluster::HostId src, Transport t, std::size_t bytes);

  /// Schedule `on_arrival` at the destination's arrival time; returns that
  /// time. The payload is whatever the callback captured — the fabric only
  /// does timing.
  sim::Time deliver(cluster::HostId src, cluster::HostId dst, Transport t, std::size_t bytes,
                    sim::Callback on_arrival);

  /// Unreliable datagram delivery (IB UD): the loss decision comes from
  /// the fault plan's dedicated datagram stream only — the drop/spike,
  /// outage and kill streams draw nothing, so seeded RC/TCP chaos runs
  /// stay byte-identical when UD traffic is added. A lost datagram's
  /// callback never fires.
  sim::Time deliver_datagram(cluster::HostId src, cluster::HostId dst, Transport t,
                             std::size_t bytes, sim::Callback on_arrival);

  /// Like deliver(), but never reorders within a flow: the arrival is
  /// clamped to `flow_clock` (the flow's previous arrival), which is then
  /// advanced. Small messages may still preempt *other* flows' bulk
  /// reservations on the shared egress.
  sim::Time deliver_flow(cluster::HostId src, cluster::HostId dst, Transport t,
                         std::size_t bytes, sim::Time& flow_clock,
                         sim::Callback on_arrival);

  /// Time-only bulk transfer: suspends the caller until the data would have
  /// arrived. Used for modeled data paths (HDFS blocks, shuffle) where no
  /// real bytes move.
  sim::Co<void> transfer(cluster::HostId src, cluster::HostId dst, Transport t,
                         std::size_t bytes);

  sim::Scheduler& sched() const { return sched_; }

 private:
  sim::Scheduler& sched_;
  std::map<Transport, NetParams> params_;
  // egress_free_[transport_index][host] = time the NIC next becomes idle.
  std::map<Transport, std::vector<sim::Time>> egress_free_;
  std::size_t num_hosts_;
  FaultPlan* fault_ = nullptr;
};

}  // namespace rpcoib::net
