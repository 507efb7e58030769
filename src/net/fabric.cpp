#include "net/fabric.hpp"

#include <algorithm>
#include <stdexcept>

#include "net/fault.hpp"

namespace rpcoib::net {

namespace {
/// One decision per delivery; a null or empty plan draws no randomness.
FaultDecision fault_decision(FaultPlan* plan, cluster::HostId src, cluster::HostId dst,
                             sim::Time now, bool reliable) {
  if (plan == nullptr || !plan->enabled()) return FaultDecision{};
  return plan->decide(src, dst, now, reliable);
}
}  // namespace

Fabric::Fabric(sim::Scheduler& sched, std::size_t num_hosts)
    : sched_(sched), num_hosts_(num_hosts) {
  for (Transport t : {Transport::kOneGigE, Transport::kTenGigE, Transport::kIPoIB,
                      Transport::kIBVerbs}) {
    params_[t] = params_for(t);
    egress_free_[t].assign(num_hosts_, 0);
  }
}

void Fabric::set_params(Transport t, NetParams p) { params_[t] = p; }

const NetParams& Fabric::params(Transport t) const {
  auto it = params_.find(t);
  if (it == params_.end()) throw std::logic_error("fabric: unknown transport");
  return it->second;
}

sim::Time Fabric::reserve_egress(cluster::HostId src, Transport t, std::size_t bytes) {
  const NetParams& p = params(t);
  std::vector<sim::Time>& free = egress_free_[t];
  sim::Time& horizon = free[static_cast<std::size_t>(src)];
  // Real NICs interleave at packet granularity (IB VL arbitration, TCP
  // fair sharing), so a small message never waits behind a whole bulk
  // transfer: it departs immediately while still consuming link capacity.
  static constexpr std::size_t kPreemptBytes = 16 * 1024;
  if (bytes <= kPreemptBytes) {
    const sim::Time done = sched_.now() + p.wire_time(bytes);
    horizon = std::max(horizon, sched_.now()) + p.wire_time(bytes);
    return done;
  }
  const sim::Time start = std::max(sched_.now(), horizon);
  const sim::Time done = start + p.wire_time(bytes);
  horizon = done;
  return done;
}

sim::Time Fabric::deliver(cluster::HostId src, cluster::HostId dst, Transport t,
                          std::size_t bytes, sim::Callback on_arrival) {
  (void)dst;  // ingress contention is not modeled; see header comment
  const NetParams& p = params(t);
  const sim::Time egress_done = reserve_egress(src, t, bytes);
  const FaultDecision fd = fault_decision(fault_, src, dst, sched_.now(), /*reliable=*/false);
  const sim::Time arrival = egress_done + p.one_way_latency + fd.extra;
  // A lost one-shot delivery: the callback never fires; the layer above
  // must detect the silence (timeout) and recover.
  if (!fd.lost) sched_.call_at(arrival, std::move(on_arrival));
  return arrival;
}

sim::Time Fabric::deliver_datagram(cluster::HostId src, cluster::HostId dst, Transport t,
                                   std::size_t bytes, sim::Callback on_arrival) {
  (void)dst;
  const NetParams& p = params(t);
  const sim::Time egress_done = reserve_egress(src, t, bytes);
  const sim::Time arrival = egress_done + p.one_way_latency;
  const bool lost =
      fault_ != nullptr && fault_->take_datagram_loss(src, dst, sched_.now());
  if (!lost) sched_.call_at(arrival, std::move(on_arrival));
  return arrival;
}

sim::Time Fabric::deliver_flow(cluster::HostId src, cluster::HostId dst, Transport t,
                               std::size_t bytes, sim::Time& flow_clock,
                               sim::Callback on_arrival) {
  (void)dst;
  const NetParams& p = params(t);
  const sim::Time egress_done = reserve_egress(src, t, bytes);
  const FaultDecision fd = fault_decision(fault_, src, dst, sched_.now(), /*reliable=*/true);
  // Fault delay lands before the in-flow clamp: a retransmitted chunk
  // stalls everything behind it in the stream (TCP head-of-line blocking).
  sim::Time arrival = egress_done + p.one_way_latency + fd.extra;
  // In-flow pacing: a stream's chunks arrive in order AND no faster than
  // the wire carries them — even when small-message preemption lets them
  // jump the shared egress queue. This is what makes a 2 MB socket
  // message drain at link speed at the receiver (Fig. 1's denominator).
  const sim::Time flow_min = flow_clock + p.wire_time(bytes);
  if (arrival < flow_min) arrival = flow_min;
  flow_clock = arrival;
  sched_.call_at(arrival, std::move(on_arrival));
  return arrival;
}

sim::Co<void> Fabric::transfer(cluster::HostId src, cluster::HostId dst, Transport t,
                               std::size_t bytes) {
  (void)dst;
  const NetParams& p = params(t);
  const sim::Time egress_done = reserve_egress(src, t, bytes);
  const FaultDecision fd = fault_decision(fault_, src, dst, sched_.now(), /*reliable=*/true);
  const sim::Time arrival = egress_done + p.one_way_latency + fd.extra;
  co_await sim::delay(sched_, arrival - sched_.now());
}

}  // namespace rpcoib::net
