#include "net/fault.hpp"

namespace rpcoib::net {

namespace {
/// Delay a reliable path pays per dropped chunk (a TCP RTO / IB RC
/// retransmit timeout).
constexpr sim::Dur kRetransmitDelay = sim::millis(200);
}  // namespace

sim::Time FaultPlan::window_clear_time(cluster::HostId src, cluster::HostId dst,
                                       sim::Time now) const {
  // Windows may chain or overlap; iterate to the fixpoint. Each pass either
  // terminates or advances past at least one window's end, so this is
  // bounded by the window count.
  sim::Time t = now;
  bool moved = true;
  while (moved) {
    moved = false;
    for (const FaultWindow& w : windows_) {
      if (w.matches(src, dst, t)) {
        t = w.end;
        moved = true;
      }
    }
  }
  return t;
}

FaultDecision FaultPlan::decide(cluster::HostId src, cluster::HostId dst, sim::Time now,
                                bool reliable) {
  FaultDecision d;
  if (!enabled() || src == dst) return d;

  // Outage windows first: they dominate per-chunk probabilities.
  const sim::Time clear = window_clear_time(src, dst, now);
  if (clear > now) {
    ++counters_.outage_hits;
    if (!reliable) {
      ++counters_.true_losses;
      d.lost = true;
      return d;
    }
    // A reliable stream stalls through the outage and resumes one
    // retransmit timeout after the link comes back.
    d.extra = (clear - now) + kRetransmitDelay;
  }

  const LinkFaults& f = default_;
  if (f.drop_prob > 0.0) {
    // Each retransmission is itself subject to loss; cap the chain so a
    // drop_prob of 1.0 cannot hang the simulation.
    static constexpr int kMaxRetransmits = 8;
    for (int i = 0; i < kMaxRetransmits && rng_.next_double() < f.drop_prob; ++i) {
      ++counters_.drops;
      if (!reliable) {
        ++counters_.true_losses;
        d.lost = true;
        return d;
      }
      d.extra += kRetransmitDelay;
    }
  }
  if (f.spike_prob > 0.0 && rng_.next_double() < f.spike_prob) {
    ++counters_.spikes;
    d.extra += f.spike_extra;
  }
  return d;
}

bool FaultPlan::take_kill(cluster::HostId src, cluster::HostId dst, sim::Time now) {
  if (!kills_enabled() || src == dst) return false;
  for (KillEntry& k : kills_) {
    if (k.fired || now < k.at) continue;
    if ((k.src < 0 || k.src == src) && (k.dst < 0 || k.dst == dst)) {
      k.fired = true;
      ++counters_.kills;
      return true;
    }
  }
  if (kill_prob_ > 0.0 && kill_rng_.next_double() < kill_prob_) {
    ++counters_.kills;
    return true;
  }
  return false;
}

bool FaultPlan::take_datagram_loss(cluster::HostId src, cluster::HostId dst, sim::Time now) {
  if (src == dst) return false;
  // Outage windows are deterministic (no RNG draw) and swallow datagrams
  // outright — there is no retransmit path to stall.
  if (!windows_.empty() && window_clear_time(src, dst, now) > now) {
    ++counters_.outage_hits;
    ++counters_.datagram_losses;
    return true;
  }
  if (!datagram_loss_enabled()) return false;
  if (datagram_rng_.next_double() < datagram_loss_prob_) {
    ++counters_.datagram_losses;
    return true;
  }
  return false;
}

}  // namespace rpcoib::net
