#include "rpc/writable.hpp"

#include <bit>
#include <cstring>

namespace rpcoib::rpc {

namespace {

template <typename T>
void store_be(net::Byte* dst, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    dst[i] = static_cast<net::Byte>(v >> (8 * (sizeof(T) - 1 - i)));
  }
}

template <typename T>
T load_be(const net::Byte* src) {
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    v = static_cast<T>((v << 8) | src[i]);
  }
  return v;
}

}  // namespace

void DataOutput::write_u16(std::uint16_t v) {
  accrue(cost_model().field_op());
  net::Byte b[2];
  store_be(b, v);
  write_raw(net::ByteSpan(b, 2));
}

void DataOutput::write_u32(std::uint32_t v) {
  accrue(cost_model().field_op());
  net::Byte b[4];
  store_be(b, v);
  write_raw(net::ByteSpan(b, 4));
}

void DataOutput::write_u64(std::uint64_t v) {
  accrue(cost_model().field_op());
  net::Byte b[8];
  store_be(b, v);
  write_raw(net::ByteSpan(b, 8));
}

void DataOutput::write_f64(double v) { write_u64(std::bit_cast<std::uint64_t>(v)); }

// WritableUtils.writeVLong, Hadoop's exact encoding: values in [-112, 127]
// are one byte; otherwise the first byte encodes sign and byte count
// (-113..-120 positive len 1..8, -121..-128 negative len 1..8), followed by
// the magnitude bytes, big-endian, without leading zeros.
void DataOutput::write_vi64(std::int64_t i) {
  accrue(cost_model().field_op());
  if (i >= -112 && i <= 127) {
    const auto b = static_cast<net::Byte>(static_cast<std::int8_t>(i));
    write_raw(net::ByteSpan(&b, 1));
    return;
  }
  int len = -112;
  std::uint64_t mag;
  if (i < 0) {
    mag = static_cast<std::uint64_t>(~i);  // i ^= -1 in Hadoop
    len = -120;
  } else {
    mag = static_cast<std::uint64_t>(i);
  }
  std::uint64_t tmp = mag;
  while (tmp != 0) {
    tmp >>= 8;
    --len;
  }
  net::Byte buf[9];
  buf[0] = static_cast<net::Byte>(static_cast<std::int8_t>(len));
  const int n = (len < -120) ? -(len + 120) : -(len + 112);
  for (int idx = n; idx != 0; --idx) {
    const int shift = (idx - 1) * 8;
    buf[n - idx + 1] = static_cast<net::Byte>((mag >> shift) & 0xFF);
  }
  write_raw(net::ByteSpan(buf, static_cast<std::size_t>(n) + 1));
}

void DataOutput::write_text(const std::string& s) {
  write_vi64(static_cast<std::int64_t>(s.size()));
  accrue(cost_model().field_op());
  write_raw(net::ByteSpan(reinterpret_cast<const net::Byte*>(s.data()), s.size()));
}

void DataOutput::write_bytes(net::ByteSpan data) {
  write_u32(static_cast<std::uint32_t>(data.size()));
  accrue(cost_model().field_op());
  write_raw(data);
}

std::uint16_t DataInput::read_u16() {
  accrue(cost_model().field_op());
  net::Byte b[2];
  read_raw(net::MutByteSpan(b, 2));
  return load_be<std::uint16_t>(b);
}

std::uint32_t DataInput::read_u32() {
  accrue(cost_model().field_op());
  net::Byte b[4];
  read_raw(net::MutByteSpan(b, 4));
  return load_be<std::uint32_t>(b);
}

std::uint64_t DataInput::read_u64() {
  accrue(cost_model().field_op());
  net::Byte b[8];
  read_raw(net::MutByteSpan(b, 8));
  return load_be<std::uint64_t>(b);
}

double DataInput::read_f64() { return std::bit_cast<double>(read_u64()); }

std::int64_t DataInput::read_vi64() {
  std::int64_t v = 0;
  if (!try_read_vi64(v)) throw SerializationError("vint past end of input");
  return v;
}

std::int32_t DataInput::read_vi32() {
  const std::int64_t v = read_vi64();
  if (v < INT32_MIN || v > INT32_MAX) throw SerializationError("vint out of int32 range");
  return static_cast<std::int32_t>(v);
}

std::string DataInput::read_text() {
  std::string s;
  if (!try_read_text(s)) throw SerializationError("bad text length");
  return s;
}

net::Bytes DataInput::read_bytes() {
  const std::uint32_t len = read_u32();
  if (len > remaining()) throw SerializationError("bad bytes length");
  net::Bytes b(len);
  // BytesWritable.readFields: setCapacity() allocates the backing array,
  // then in.readFully copies into it.
  accrue_alloc(cost_model().heap_alloc(len));
  accrue(cost_model().field_op() + cost_model().heap_copy(len));
  read_raw(b);
  return b;
}

bool DataInput::try_read_u8(std::uint8_t& v) {
  if (remaining() < 1) return false;
  v = read_u8();
  return true;
}

bool DataInput::try_read_u64(std::uint64_t& v) {
  if (remaining() < 8) return false;
  v = read_u64();
  return true;
}

bool DataInput::try_read_vi64(std::int64_t& v) {
  if (remaining() < 1) return false;
  accrue(cost_model().field_op());
  net::Byte first;
  read_raw(net::MutByteSpan(&first, 1));
  const auto fb = static_cast<std::int8_t>(first);
  if (fb >= -112) {
    v = fb;
    return true;
  }
  const bool neg = fb < -120;
  const int n = neg ? -(fb + 120) : -(fb + 112);
  if (remaining() < static_cast<std::size_t>(n)) return false;
  std::uint64_t mag = 0;
  for (int i = 0; i < n; ++i) {
    net::Byte b;
    read_raw(net::MutByteSpan(&b, 1));
    mag = (mag << 8) | b;
  }
  v = neg ? ~static_cast<std::int64_t>(mag) : static_cast<std::int64_t>(mag);
  return true;
}

bool DataInput::try_read_text(std::string& s) {
  std::int64_t len = 0;
  if (!try_read_vi64(len) || len < 0 || static_cast<std::size_t>(len) > remaining()) {
    return false;
  }
  s.assign(static_cast<std::size_t>(len), '\0');
  // new String(bytes): a heap allocation plus the copy out of the stream.
  accrue_alloc(cost_model().heap_alloc(s.size()));
  accrue(cost_model().field_op() + cost_model().heap_copy(s.size()));
  read_raw(net::MutByteSpan(reinterpret_cast<net::Byte*>(s.data()), s.size()));
  return true;
}

}  // namespace rpcoib::rpc
