// One-sided read plane: the server-side exported region (onesided.* knobs).
//
// Hot, read-mostly responses — NameNode block locations, HBase rows, YCSB
// hot keys — are published as serialized kResp payload bytes into a
// versioned, pre-registered native region of fixed-stride seqlock slots.
// Clients that cached the region's advertisement resolve eligible lookups
// with a single RDMA READ, bypassing the server's admission/handler chain
// entirely ("RDMA vs. RPC for Implementing Distributed Data Structures":
// one-sided wins exactly when the server CPU is the bottleneck).
//
// Slot layout (stride = 40 + payload capacity bytes, all words little-endian
// host order — both ends live in one simulated process):
//
//   [u64 v1][u64 generation][u64 key_hash][u32 len][u32 reserved]
//   [payload capacity bytes][u64 v2]
//
// Seqlock protocol: a slot is consistent iff v1 == v2 and v1 is even. The
// publisher opens a write window by bumping v1 to odd, copies the staged
// payload in after OneSidedConfig::write_window_us of simulated time, then
// closes with v2 = v1 = next even value. A reader that snapshots the window
// sees odd/unequal versions and retries (bounded) or falls back to RPC.
//
// Generation protocol: every export carries a generation (starting at 1,
// bumped on growth re-export). Live slots carry the current generation;
// empty slots carry it too (hash 0 = miss, not staleness). When the region
// is re-exported, every slot of the *retired* buffer has its generation
// word poisoned to 0 — a value no advertisement ever carries — and the
// buffer stays allocated and registered until the region dies, so a stale
// READ completes against real memory and fails closed on the generation
// check instead of faulting or reading recycled bytes.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/bytes.hpp"
#include "net/frame.hpp"
#include "rpc/rpc.hpp"
#include "rpcoib/wire.hpp"
#include "verbs/verbs.hpp"

namespace rpcoib::oib {

class OneSidedRegion final : public rpc::OneSidedPublisher {
 public:
  /// Bytes of slot metadata before the payload (SlotHeader) and after its
  /// capacity (SlotTrailer).
  static constexpr std::size_t kHeaderBytes = 32;
  static constexpr std::size_t kTrailerBytes = 8;

  /// A slot's words ahead of the payload, little-endian: v1, the
  /// generation (0 in a retired export), the key hash (0 = empty), the
  /// payload length and a reserved zero word.
  struct SlotHeader {
    std::uint64_t version = 0, generation = 0, hash = 0;
    std::uint32_t len = 0;
    template <typename IO>
    void fields(IO& io) { io.u64(version).u64(generation).u64(hash).u32(len).pad(4); }
  };
  /// v2, the slot's last word: a READ whose v1 and v2 differ (or are odd)
  /// overlapped a publish.
  struct SlotTrailer {
    std::uint64_t version = 0;
    template <typename IO> void fields(IO& io) { io.u64(version); }
  };

  OneSidedRegion(verbs::VerbsStack& stack, verbs::ProtectionDomain& pd,
                 net::Address addr, OneSidedConfig cfg);
  ~OneSidedRegion() override;
  OneSidedRegion(const OneSidedRegion&) = delete;
  OneSidedRegion& operator=(const OneSidedRegion&) = delete;

  /// Publish the serialized response for `key` (empty payload = tombstone:
  /// the slot reads as a miss and clients fall back to RPC). Grows +
  /// re-exports the region when the payload outgrows the slot capacity.
  void publish(const std::string& key, net::ByteSpan payload) override;

  /// (Re-)advertise the current export on the stack's directory. The
  /// server calls this at start(); publish() re-advertises on growth.
  void advertise();
  /// Withdraw the advertisement (server stop). The export itself stays
  /// alive — in-flight READs still resolve and fail closed on generation.
  void withdraw();

  std::uint64_t generation() const { return generation_; }
  std::uint64_t published() const { return published_; }
  std::uint64_t reexports() const { return reexports_; }

  /// Direct-mapped slot index + the FNV-1a tag stored in the slot header.
  static std::uint64_t hash_key(const std::string& key);

 private:
  struct Export {
    net::Bytes backing;
    verbs::MemoryRegion mr;
    std::size_t slot_bytes = 0;
  };
  struct SlotState {
    std::uint64_t version = 2;   // even = closed; mirrors the in-slot words
    bool window_open = false;
    std::uint64_t staged_hash = 0;
    net::Bytes staged_payload;
  };

  std::size_t slot_stride() const { return kHeaderBytes + payload_cap_ + kTrailerBytes; }
  net::MutByteSpan slot(std::size_t idx);
  /// Rewrite one slot's header through `edit`, leaving the payload be.
  template <typename Edit>
  static void edit_header(net::MutByteSpan slot, Edit edit) {
    SlotHeader h;
    net::decode_frame(slot, h);
    edit(h);
    net::write_frame(slot, h);
  }
  /// Allocate + register a fresh buffer of `payload_cap` slots, fill it
  /// from entries_, poison the retired export, bump the generation.
  void export_region(std::size_t payload_cap);
  /// Write one slot's words + payload in place (no window; used to fill a
  /// buffer that is not yet advertised, and by the window-close callback).
  void fill_slot(std::size_t idx, std::uint64_t hash, net::ByteSpan payload,
                 std::uint64_t version);
  void close_window(std::size_t idx, std::uint64_t opened_generation);

  verbs::VerbsStack& stack_;
  verbs::ProtectionDomain& pd_;
  net::Address addr_;
  OneSidedConfig cfg_;
  std::size_t payload_cap_ = 0;
  std::uint64_t generation_ = 0;
  /// Authoritative entry set: the refill source on growth re-export.
  std::map<std::string, net::Bytes> entries_;
  std::vector<SlotState> slots_;
  /// Current export is retired_.back(); earlier entries are poisoned but
  /// stay allocated + registered so stale READs fail closed.
  std::vector<Export> retired_;
  std::uint64_t published_ = 0;
  std::uint64_t reexports_ = 0;
  bool advertised_ = false;
  /// Stand-down token for scheduled window closes outliving the region.
  std::shared_ptr<bool> alive_;
};

}  // namespace rpcoib::oib
