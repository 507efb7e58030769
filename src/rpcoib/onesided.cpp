#include "rpcoib/onesided.hpp"

#include <algorithm>

#include "sim/time.hpp"

namespace rpcoib::oib {

OneSidedRegion::OneSidedRegion(verbs::VerbsStack& stack, verbs::ProtectionDomain& pd,
                               net::Address addr, OneSidedConfig cfg)
    : stack_(stack),
      pd_(pd),
      addr_(addr),
      cfg_(cfg),
      slots_(static_cast<std::size_t>(cfg.slots)),
      alive_(std::make_shared<bool>(true)) {
  export_region(static_cast<std::size_t>(cfg_.slot_payload));
}

OneSidedRegion::~OneSidedRegion() {
  *alive_ = false;
  withdraw();
  // The ProtectionDomain deregisters every export's region when it dies
  // (it owns the rkeys); in-flight READs racing that teardown surface as
  // failed completions via the verbs layer's resolve guard.
}

std::uint64_t OneSidedRegion::hash_key(const std::string& key) {
  // FNV-1a 64. The tag is also the direct-map index source; 0 is reserved
  // for "empty slot", so a (vanishingly unlikely) zero hash is nudged.
  std::uint64_t h = 1469598103934665603ULL;
  for (char c : key) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h == 0 ? 1 : h;
}

net::MutByteSpan OneSidedRegion::slot(std::size_t idx) {
  return net::MutByteSpan(retired_.back().backing).subspan(idx * slot_stride(), slot_stride());
}

void OneSidedRegion::fill_slot(std::size_t idx, std::uint64_t hash, net::ByteSpan payload,
                               std::uint64_t version) {
  const net::MutByteSpan s = slot(idx);
  net::write_frame(s, SlotHeader{version, generation_, hash,
                                 static_cast<std::uint32_t>(payload.size())});
  std::copy(payload.begin(), payload.end(), s.begin() + kHeaderBytes);
  net::write_frame(s.last(kTrailerBytes), SlotTrailer{version});
}

void OneSidedRegion::export_region(std::size_t payload_cap) {
  // Poison the retired export first: generation word 0 in every slot, a
  // value no advertisement ever carries, so a READ issued against the old
  // rkey completes normally and fails closed on the generation check.
  if (!retired_.empty()) {
    Export& old = retired_.back();
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      edit_header(net::MutByteSpan(old.backing).subspan(i * old.slot_bytes, old.slot_bytes),
                  [](SlotHeader& h) { h.generation = 0; });
    }
    ++reexports_;
  }
  payload_cap_ = payload_cap;
  ++generation_;
  Export ex;
  ex.slot_bytes = slot_stride();
  ex.backing.assign(slots_.size() * ex.slot_bytes, net::Byte{0});
  ex.mr = pd_.register_mr_untimed(
      net::MutByteSpan(ex.backing.data(), ex.backing.size()));
  retired_.push_back(std::move(ex));
  // Any open write window belonged to the retired buffer; its close
  // callback stands down on the generation check below. Reset the slot
  // version mirrors to match the zero-filled buffer, then refill every
  // entry synchronously — the buffer is not advertised yet, so no reader
  // can observe the fill mid-way.
  for (SlotState& st : slots_) {
    st.version = 2;
    st.window_open = false;
  }
  for (std::size_t i = 0; i < slots_.size(); ++i) fill_slot(i, 0, {}, 2);
  for (const auto& [key, payload] : entries_) {
    const std::uint64_t h = hash_key(key);
    const std::size_t idx = static_cast<std::size_t>(h % slots_.size());
    fill_slot(idx, h, payload, 2);
  }
  if (advertised_) advertise();
}

void OneSidedRegion::advertise() {
  verbs::OneSidedService svc;
  svc.host = retired_.back().mr.owner;
  svc.rkey = retired_.back().mr.rkey;
  svc.generation = generation_;
  svc.slots = static_cast<std::uint32_t>(slots_.size());
  svc.slot_bytes = static_cast<std::uint32_t>(slot_stride());
  stack_.onesided_advertise(addr_, svc);
  advertised_ = true;
}

void OneSidedRegion::withdraw() {
  if (!advertised_) return;
  stack_.onesided_withdraw(addr_);
  advertised_ = false;
}

void OneSidedRegion::publish(const std::string& key, net::ByteSpan payload) {
  entries_[key] = net::Bytes(payload.begin(), payload.end());
  ++published_;
  if (payload.size() > payload_cap_) {
    // Growth: double until the payload fits, re-export under a new rkey +
    // generation (the refill covers this entry), re-advertise.
    std::size_t cap = payload_cap_;
    while (cap < payload.size()) cap *= 2;
    export_region(cap);
    return;
  }
  const std::uint64_t h = hash_key(key);
  const std::size_t idx = static_cast<std::size_t>(h % slots_.size());
  SlotState& st = slots_[idx];
  st.staged_hash = h;
  st.staged_payload = entries_[key];
  if (st.window_open) return;  // the pending close writes the latest staging
  // Open the seqlock window: v1 goes odd now, the payload lands after the
  // write window elapses, v2/v1 close at the next even value. A reader
  // snapshotting in between sees the odd/unequal pair and retries.
  st.window_open = true;
  st.version += 1;
  edit_header(slot(idx), [&st](SlotHeader& h) { h.version = st.version; });
  stack_.fabric().sched().call_at(
      stack_.fabric().sched().now() + sim::from_us(cfg_.write_window_us),
      [this, idx, gen = generation_, alive = alive_] {
        if (!*alive) return;
        close_window(idx, gen);
      });
}

void OneSidedRegion::close_window(std::size_t idx, std::uint64_t opened_generation) {
  SlotState& st = slots_[idx];
  if (opened_generation != generation_) {
    // A growth re-export retired the buffer this window was opened on and
    // already wrote the staged entry into the new one; nothing to close.
    return;
  }
  st.version += 1;
  fill_slot(idx, st.staged_hash, st.staged_payload, st.version);
  st.window_open = false;
}

}  // namespace rpcoib::oib
