// Little-endian field codec for the fixed-layout transport frames: the
// RPCoIB rendezvous control frames and kBatch, the stream plane's control
// frames and the metas they carry, the verbs bootstrap blob and UD GRH, the
// one-sided slot words and the socket preamble.
//
// A frame states its layout once, as a member template
//
//   template <typename IO> void fields(IO& io) { io.tag(kType).u64(sid).u32(seq); }
//
// and both directions run that list: FrameWriter writes each field into a
// fixed buffer (a fresh net::Bytes sized by a counting pass, or a caller's
// span), FrameReader reads it back. Integers are little-endian; a blob is a
// u32 length and its bytes. Both are cursors: a copy carries on from the
// same place in the same buffer. The reader is total: a field past the end,
// or a count or length larger than the bytes left, clears ok() for good and
// leaves that field and every later one unread. It never throws and refuses
// a count before allocating.
// The Java-order call/response frames stay with rpc::DataOutput.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <vector>

#include "net/bytes.hpp"

namespace rpcoib::net {

/// A contiguous byte range (Bytes, ByteSpan, std::string) viewed as bytes.
template <typename R>
ByteSpan byte_view(const R& r) {
  return ByteSpan(reinterpret_cast<const Byte*>(std::data(r)), std::size(r));
}

class FrameWriter {
 public:
  /// Sizing pass: counts the bytes a frame takes, writes nothing.
  FrameWriter() = default;
  /// Writes into `out`; a field that does not fit clears ok().
  explicit FrameWriter(MutByteSpan out) : out_(out), sizing_(false) {}

  // An integer, bool or enum, cast to the field's width.
  template <typename T> FrameWriter& u8(const T& v) { return le<std::uint8_t>(v); }
  template <typename T> FrameWriter& u32(const T& v) { return le<std::uint32_t>(v); }
  template <typename T> FrameWriter& u64(const T& v) { return le<std::uint64_t>(v); }
  /// The frame's type byte.
  template <typename T> FrameWriter& tag(const T& type) { return u8(type); }
  /// `n` zero bytes.
  FrameWriter& pad(std::size_t n) {
    for (; n > 0; --n) u8(0);
    return *this;
  }
  /// The bytes of `r`, unprefixed: the layout states their length elsewhere.
  template <typename R> FrameWriter& raw(const R& r, std::size_t = 0) { return put(byte_view(r)); }
  /// A u32 length, then the bytes.
  template <typename R> FrameWriter& blob(const R& r) { return u32(std::size(r)).raw(r); }
  /// A u8 element count, then `each(io, element)` per element.
  template <typename T, typename Each>
  FrameWriter& list8(const std::vector<T>& v, Each each) {
    u8(v.size());
    for (const T& e : v) each(*this, const_cast<T&>(e));  // fields() serve both directions
    return *this;
  }
  /// The reader sizes a list here; the writer's already is.
  template <typename T> FrameWriter& resize(const std::vector<T>&, std::size_t) { return *this; }

  bool ok() const { return ok_; }
  /// Bytes written, or counted.
  std::size_t size() const { return pos_; }
  /// Room left; 0 when sizing.
  std::size_t remaining() const { return sizing_ ? 0 : out_.size() - pos_; }

 private:
  template <typename W, typename T>
  FrameWriter& le(const T& field) {
    const auto v = static_cast<W>(field);
    Byte b[sizeof(W)];
    for (std::size_t i = 0; i < sizeof(W); ++i) b[i] = static_cast<Byte>(v >> (8 * i));
    return put(b);
  }
  FrameWriter& put(ByteSpan b) {
    if (!sizing_ && ok_ && b.size() > remaining()) ok_ = false;
    if (!ok_) return *this;
    if (!sizing_) std::copy(b.begin(), b.end(), out_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ += b.size();
    return *this;
  }

  MutByteSpan out_;
  bool sizing_ = true;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

class FrameReader {
 public:
  explicit FrameReader(ByteSpan in) : in_(in) {}

  // An integer, bool (nonzero) or enum, cast from the field's width.
  template <typename T> FrameReader& u8(T& v) { return le<std::uint8_t>(v); }
  template <typename T> FrameReader& u32(T& v) { return le<std::uint32_t>(v); }
  template <typename T> FrameReader& u64(T& v) { return le<std::uint64_t>(v); }
  /// A big-endian u64: the call id or session word rpc::DataOutput wrote
  /// into a kCall/kResp/kUdCall frame.
  FrameReader& be64(std::uint64_t& v) {
    if (!fits(8)) return *this;
    for (std::size_t i = 0; i < 8; ++i) v = (i == 0 ? 0 : v << 8) | in_[pos_ + i];
    pos_ += 8;
    return *this;
  }
  /// The type byte is skipped, not checked: the caller dispatched on it.
  template <typename T> FrameReader& tag(const T&) { return pad(1); }
  FrameReader& pad(std::size_t n) {
    if (fits(n)) pos_ += n;
    return *this;
  }
  /// A view of the next `n` bytes.
  FrameReader& raw(ByteSpan& v, std::size_t n) {
    if (fits(n)) v = in_.subspan(pos_, n);
    return pad(n);
  }
  FrameReader& blob(ByteSpan& v) {
    std::uint32_t n = 0;
    return u32(n).raw(v, n);
  }
  /// Every element takes at least one byte, so a count above the bytes
  /// left is refused before anything is allocated.
  template <typename T, typename Each>
  FrameReader& list8(std::vector<T>& v, Each each) {
    std::uint8_t n = 0;
    if (u8(n).resize(v, n).ok()) {
      for (T& e : v) each(*this, e);
    }
    return *this;
  }
  /// Size `v` to `n` elements of at least one byte each.
  template <typename T> FrameReader& resize(std::vector<T>& v, std::size_t n) {
    if (fits(n)) v.resize(n);
    return *this;
  }

  bool ok() const { return ok_; }
  std::size_t remaining() const { return in_.size() - pos_; }

 private:
  bool fits(std::size_t n) {
    if (ok_ && n > remaining()) ok_ = false;
    return ok_;
  }
  template <typename W, typename T>
  FrameReader& le(T& field) {
    if (!fits(sizeof(W))) return *this;
    W v = 0;
    for (std::size_t i = 0; i < sizeof(W); ++i) v |= static_cast<W>(W{in_[pos_ + i]} << (8 * i));
    field = static_cast<T>(v);
    pos_ += sizeof(W);
    return *this;
  }

  ByteSpan in_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// fields() serves both directions, so it is non-const; the writer only
// reads the frame it is handed.

/// The bytes `m` encodes to.
template <typename M>
std::size_t frame_size(const M& m) {
  FrameWriter w;
  const_cast<M&>(m).fields(w);
  return w.size();
}

/// Write `m` at the front of `out`; the bytes written, 0 when it does not fit.
template <typename M>
std::size_t write_frame(MutByteSpan out, const M& m) {
  FrameWriter w(out);
  const_cast<M&>(m).fields(w);
  return w.ok() ? w.size() : 0;
}

/// `m` in a fresh buffer, sized by a counting pass: one allocation.
template <typename M>
Bytes encode_frame(const M& m) {
  Bytes out(frame_size(m));
  write_frame(out, m);
  return out;
}

/// Read `m` from the front of `in`; trailing bytes are left unread. False
/// when `in` ends first or a count or length exceeds it.
template <typename M>
bool decode_frame(ByteSpan in, M& m) {
  FrameReader r(in);
  m.fields(r);
  return r.ok();
}

}  // namespace rpcoib::net
