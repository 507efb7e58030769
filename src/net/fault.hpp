// Deterministic network fault injection.
//
// A FaultPlan attached to the Fabric perturbs message delivery: link
// packet/message drop probability, transient link flaps (outage windows),
// one-way partitions, and latency spikes. All randomness comes from one
// RNG seeded at construction, so a given (seed, plan) pair reproduces the
// exact same failure schedule on every run — chaos tests stay bitwise
// deterministic.
//
// Loss semantics mirror the layering above the fabric:
//   - Reliable byte streams and bulk transfers (deliver_flow / transfer)
//     model TCP or IB RC: a "dropped" chunk is retransmitted, surfacing as
//     added delay (the retransmit timeout), never as data loss. Delivery
//     inside an outage window is pushed past the window's end.
//   - One-shot datagram-style deliveries (deliver) can be truly lost: the
//     arrival callback simply never fires and the layer above must time
//     out and recover.
//
// A default-constructed or empty plan draws zero random numbers and adds
// zero delay, so compiling the fault layer in costs nothing when disabled.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/host.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace rpcoib::net {

/// Link fault probabilities, the same on every link (applied per
/// message/chunk).
struct LinkFaults {
  double drop_prob = 0.0;        // chance a chunk is dropped (retransmitted
                                 // on reliable paths, lost on one-shot)
  double spike_prob = 0.0;       // chance of an added latency spike
  sim::Dur spike_extra = 0;      // size of the spike

  bool any() const { return drop_prob > 0.0 || spike_prob > 0.0; }
};

/// A time window during which a (src, dst) direction delivers nothing.
/// src/dst of -1 match any host, so {-1, d} partitions d's ingress and
/// {s, -1} partitions s's egress; a pair of windows makes a full flap.
struct FaultWindow {
  cluster::HostId src = -1;
  cluster::HostId dst = -1;
  sim::Time start = 0;
  sim::Time end = 0;  // exclusive

  bool matches(cluster::HostId s, cluster::HostId d, sim::Time now) const {
    return (src < 0 || src == s) && (dst < 0 || dst == d) && now >= start && now < end;
  }
};

/// What the plan decided for one delivery.
struct FaultDecision {
  bool lost = false;     // one-shot delivery never arrives
  sim::Dur extra = 0;    // added latency (retransmits, spikes, outage wait)
};

/// Totals for assertions and the resilience metrics table.
struct FaultCounters {
  std::uint64_t drops = 0;        // chunks hit by drop_prob
  std::uint64_t spikes = 0;       // latency spikes injected
  std::uint64_t outage_hits = 0;  // deliveries delayed/lost by a window
  std::uint64_t true_losses = 0;  // one-shot deliveries actually lost
  std::uint64_t kills = 0;        // connections force-killed mid-call
  std::uint64_t datagram_losses = 0;  // UD datagrams dropped in flight
};

class FaultPlan {
 public:
  explicit FaultPlan(std::uint64_t seed = 20130701)
      : rng_(seed),
        kill_rng_(seed ^ 0x6B696C6CULL),
        datagram_rng_(seed ^ 0x75646C6FULL) {}

  /// Faults applied to every link.
  void set_default_faults(LinkFaults f) { default_ = f; }

  /// One-way partition: nothing from src reaches dst in [start, end).
  void add_outage(FaultWindow w) { windows_.push_back(w); }

  /// Transient link flap: both directions between a and b are down for
  /// `length` starting at `start`.
  void add_flap(cluster::HostId a, cluster::HostId b, sim::Time start, sim::Dur length) {
    windows_.push_back(FaultWindow{a, b, start, start + length});
    windows_.push_back(FaultWindow{b, a, start, start + length});
  }

  /// Schedule a deterministic connection kill: the first in-flight RPC
  /// attempt on src -> dst at or after `at` has its connection forcibly
  /// torn down (socket closed / QP to error) after the request is on the
  /// wire — distinct from packet drops, which the transport retransmits
  /// through. src/dst of -1 match any host.
  void add_connection_kill(cluster::HostId src, cluster::HostId dst, sim::Time at) {
    kills_.push_back(KillEntry{src, dst, at, false});
  }

  /// Seeded probabilistic kills: each in-flight attempt on any link dies
  /// with probability `p`. Draws come from a dedicated RNG stream, so
  /// enabling kills never perturbs the drop/spike schedule of the same
  /// seed (and p == 0 draws nothing at all).
  void set_kill_prob(double p) { kill_prob_ = p; }

  /// True when any kill source is configured; transports skip the plan
  /// (zero RNG draws) when false, keeping kill-free runs bit-identical.
  bool kills_enabled() const { return kill_prob_ > 0.0 || !kills_.empty(); }

  /// Consume one kill for an attempt on src -> dst at `now`; true means
  /// the calling transport must tear the connection down.
  bool take_kill(cluster::HostId src, cluster::HostId dst, sim::Time now);

  /// Probabilistic UD datagram loss: each unreliable datagram on any link
  /// is dropped in flight with probability `p`. Draws come from a third
  /// dedicated RNG stream — configuring datagram loss never perturbs the
  /// drop/spike or kill schedules of the same seed, and a plan without UD
  /// loss draws nothing here even when UD traffic flows.
  void set_datagram_loss(double p) { datagram_loss_prob_ = p; }

  /// True when UD datagram loss is configured; the UD send path skips the
  /// plan (zero RNG draws) when false.
  bool datagram_loss_enabled() const { return datagram_loss_prob_ > 0.0; }

  /// Decide the fate of one UD datagram on src -> dst at `now`. Outage
  /// windows (deterministic, no RNG) also swallow datagrams; probabilistic
  /// loss draws only from the dedicated datagram stream.
  bool take_datagram_loss(cluster::HostId src, cluster::HostId dst, sim::Time now);

  /// True when any fault source is configured. The fabric skips the plan
  /// entirely (no RNG draws) when this is false, keeping disabled-plan
  /// runs bit-identical to runs with no plan at all.
  bool enabled() const {
    return default_.any() || !windows_.empty();
  }

  /// Decide the fate of one delivery on src -> dst at `now`.
  /// `reliable` selects retransmit-delay semantics over true loss.
  FaultDecision decide(cluster::HostId src, cluster::HostId dst, sim::Time now,
                       bool reliable);

  const FaultCounters& counters() const { return counters_; }

 private:
  struct KillEntry {
    cluster::HostId src;
    cluster::HostId dst;
    sim::Time at;
    bool fired;
  };

  /// Earliest time >= now at which no window covers src -> dst (follows
  /// chained/overlapping windows); returns now when the link is up.
  sim::Time window_clear_time(cluster::HostId src, cluster::HostId dst,
                              sim::Time now) const;

  sim::Rng rng_;
  // Kill draws ride their own stream (seed ^ constant) so a plan with and
  // without kills produces the same drop/spike schedule.
  sim::Rng kill_rng_;
  // UD datagram-loss draws ride a third stream for the same reason.
  sim::Rng datagram_rng_;
  LinkFaults default_{};
  std::vector<FaultWindow> windows_;
  std::vector<KillEntry> kills_;
  double kill_prob_ = 0.0;
  double datagram_loss_prob_ = 0.0;
  FaultCounters counters_;
};

}  // namespace rpcoib::net
