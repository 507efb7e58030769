// Byte-buffer aliases shared by the network and RPC layers, and the bulk
// payload the stream plane carries.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

namespace rpcoib::net {

using Byte = std::uint8_t;
using Bytes = std::vector<Byte>;
using ByteSpan = std::span<const Byte>;
using MutByteSpan = std::span<Byte>;

/// Bulk data on the stream plane: either a view of real bytes, or a length
/// plus the seed of the stream integrity pattern (byte j of a pattern with
/// seed k is (k * 131 + j) & 0xff). Bulk data is modelled in time — the
/// CostModel charges every copy — so a pattern crosses staging, the wire and
/// the receive ring as {length, seed}, and becomes bytes only where
/// something reads it (copy_to).
class Payload {
 public:
  Payload() = default;

  /// A view of real bytes, which must outlive the payload. Implicit, so
  /// anything that converts to a ByteSpan (a Bytes, a span) is a payload.
  template <typename R>
    requires std::is_convertible_v<const R&, ByteSpan>
  Payload(const R& bytes) {  // NOLINT(google-explicit-constructor)
    const ByteSpan view(bytes);
    data_ = view.data();
    size_ = view.size();
  }

  static Payload pattern(std::size_t size, std::uint64_t seed) {
    Payload p;
    p.size_ = size;
    p.seed_ = seed;
    p.pattern_ = true;
    return p;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool is_pattern() const { return pattern_; }
  /// The pattern seed; 0 for real bytes.
  std::uint64_t seed() const { return seed_; }
  /// The viewed bytes; empty for a pattern.
  ByteSpan bytes() const { return pattern_ ? ByteSpan{} : ByteSpan(data_, size_); }

  /// Write the content into the first size() bytes of `out`.
  void copy_to(MutByteSpan out) const {
    if (pattern_) {
      for (std::size_t j = 0; j < size_; ++j) {
        out[j] = static_cast<Byte>((seed_ * 131 + j) & 0xff);
      }
    } else if (size_ > 0) {
      std::memcpy(out.data(), data_, size_);
    }
  }

 private:
  const Byte* data_ = nullptr;
  std::size_t size_ = 0;
  std::uint64_t seed_ = 0;
  bool pattern_ = false;
};

}  // namespace rpcoib::net
