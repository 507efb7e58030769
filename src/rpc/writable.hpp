// Hadoop's Writable serialization framework, ported to C++.
//
// Faithful to Hadoop 0.20.2's wire behaviour — big-endian fixed-width
// primitives, WritableUtils variable-length ints, Text (vint length +
// bytes), BytesWritable (fixed 4-byte length + bytes) — because the
// paper's Table I/Fig. 3 numbers come from the *pattern* of many small
// stream writes these encoders perform against a growable buffer.
//
// Streams accrue modeled host-CPU cost (field ops, copies, allocations) as
// plain function calls; the owning coroutine charges the accrued total to
// its host afterwards. This keeps Writable::write() an ordinary virtual
// function, exactly like Hadoop's, while still accounting every copy.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/cost_model.hpp"
#include "net/bytes.hpp"
#include "sim/time.hpp"
#include "trace/context.hpp"

namespace rpcoib::rpc {

class SerializationError : public std::runtime_error {
 public:
  explicit SerializationError(const std::string& what) : std::runtime_error(what) {}
};

/// Abstract output stream (java.io.DataOutput). Concrete sinks:
/// DataOutputBuffer (JVM-heap growable buffer, the paper's Algorithm 1),
/// BufferedOutputStream (socket path), rpcoib::RDMAOutputStream (registered
/// native buffer).
class DataOutput {
 public:
  explicit DataOutput(const cluster::CostModel& cm) : cm_(cm) {}
  virtual ~DataOutput() = default;

  /// Raw byte-range write; concrete sinks implement this.
  virtual void write_raw(net::ByteSpan data) = 0;

  void write_u8(std::uint8_t v) {
    accrue(cm_.field_op());
    write_raw(net::ByteSpan(&v, 1));
  }
  void write_bool(bool v) { write_u8(v ? 1 : 0); }
  void write_u16(std::uint16_t v);
  void write_u32(std::uint32_t v);
  void write_u64(std::uint64_t v);
  void write_i32(std::int32_t v) { write_u32(static_cast<std::uint32_t>(v)); }
  void write_i64(std::int64_t v) { write_u64(static_cast<std::uint64_t>(v)); }
  void write_f64(double v);

  /// WritableUtils.writeVLong / writeVInt.
  void write_vi64(std::int64_t v);
  void write_vi32(std::int32_t v) { write_vi64(v); }

  /// org.apache.hadoop.io.Text: vint byte length + UTF-8 bytes.
  void write_text(const std::string& s);

  /// BytesWritable: 4-byte length + payload.
  void write_bytes(net::ByteSpan data);

  /// Raw payload write with field-op accounting (DataOutputStream.write).
  void write_payload(net::ByteSpan data) {
    accrue(cm_.field_op());
    write_raw(data);
  }

  // --- modeled cost accrual -------------------------------------------
  void accrue(sim::Dur d) { accrued_ += d; }
  sim::Dur take_accrued() {
    sim::Dur d = accrued_;
    accrued_ = 0;
    return d;
  }
  sim::Dur accrued() const { return accrued_; }
  const cluster::CostModel& cost_model() const { return cm_; }

 private:
  const cluster::CostModel& cm_;
  sim::Dur accrued_ = 0;
};

/// Abstract input stream (java.io.DataInput).
class DataInput {
 public:
  explicit DataInput(const cluster::CostModel& cm) : cm_(cm) {}
  virtual ~DataInput() = default;

  virtual void read_raw(net::MutByteSpan out) = 0;
  virtual std::size_t remaining() const = 0;

  std::uint8_t read_u8() {
    accrue(cm_.field_op());
    std::uint8_t v = 0;
    read_raw(net::MutByteSpan(&v, 1));
    return v;
  }
  bool read_bool() { return read_u8() != 0; }
  std::uint16_t read_u16();
  std::uint32_t read_u32();
  std::uint64_t read_u64();
  std::int32_t read_i32() { return static_cast<std::int32_t>(read_u32()); }
  std::int64_t read_i64() { return static_cast<std::int64_t>(read_u64()); }
  double read_f64();

  std::int64_t read_vi64();
  std::int32_t read_vi32();

  std::string read_text();
  net::Bytes read_bytes();

  // Total reads for wire headers: false, with nothing thrown, when the
  // input ends first (or a text length is negative). On success they
  // accrue exactly what the throwing reads above do.
  bool try_read_u8(std::uint8_t& v);
  bool try_read_u64(std::uint64_t& v);
  bool try_read_vi64(std::int64_t& v);
  bool try_read_text(std::string& s);

  void accrue(sim::Dur d) { accrued_ += d; }
  /// Allocation costs are tracked separately as well, so the server can
  /// decompose receive time into "buffer allocation" vs everything else
  /// (the paper's Fig. 1).
  void accrue_alloc(sim::Dur d) {
    accrued_ += d;
    alloc_accrued_ += d;
  }
  sim::Dur take_accrued() {
    sim::Dur d = accrued_;
    accrued_ = 0;
    return d;
  }
  sim::Dur take_alloc_accrued() {
    sim::Dur d = alloc_accrued_;
    alloc_accrued_ = 0;
    return d;
  }
  const cluster::CostModel& cost_model() const { return cm_; }

  /// Trace context of the RPC this input belongs to. Set by the server
  /// transport on the DataInput it hands the handler, so application
  /// handlers can parent their spans (and downstream RPCs) correctly.
  trace::TraceContext trace_context;

 private:
  const cluster::CostModel& cm_;
  sim::Dur accrued_ = 0;
  sim::Dur alloc_accrued_ = 0;
};

/// org.apache.hadoop.io.Writable.
class Writable {
 public:
  virtual ~Writable() = default;
  virtual void write(DataOutput& out) const = 0;
  virtual void read_fields(DataInput& in) = 0;

  /// One-sided read-plane eligibility: if this parameter, used as the
  /// request of `protocol`/`method`, names an entity whose serialized
  /// response the server may have published to its exported region,
  /// return that entity key. std::nullopt (the default) keeps the call on
  /// the normal RPC path. Only read-only, deterministic-response methods
  /// may opt in — the fast path returns a published snapshot verbatim.
  virtual std::optional<std::string> onesided_key(const std::string& protocol,
                                                  const std::string& method) const {
    (void)protocol;
    (void)method;
    return std::nullopt;
  }
};

// --- Field lists -------------------------------------------------------------
//
// A message states its wire layout once, as a member template
//
//   template <typename IO> void fields(IO& io) { io.text(path).u64(offset); }
//
// and both directions run that list: FieldWriter turns each op into the
// DataOutput write_* call, FieldReader into the matching DataInput read_*,
// so a list accrues exactly what hand-written write()/read_fields() bodies
// do. The reader assigns each field as it goes, so a field that is present
// only under a flag (`io.boolean(found); if (found) io.bytes(value);`)
// reads the flag before its `if`.

/// The default per-element op of list(): the element is a nested message.
struct NestedField {
  template <typename IO, typename M>
  void operator()(IO& io, M& m) const {
    io.nested(m);
  }
};

class FieldWriter {
 public:
  explicit FieldWriter(DataOutput& out) : out_(out) {}

  template <typename T>  // std::uint8_t or an enum over it
  FieldWriter& u8(const T& v) { return put(v, &DataOutput::write_u8); }
  FieldWriter& boolean(bool v) { return put(v, &DataOutput::write_bool); }
  FieldWriter& u16(std::uint16_t v) { return put(v, &DataOutput::write_u16); }
  FieldWriter& u32(std::uint32_t v) { return put(v, &DataOutput::write_u32); }
  FieldWriter& u64(std::uint64_t v) { return put(v, &DataOutput::write_u64); }
  template <typename T>  // double, or a float widened on the wire
  FieldWriter& f64(const T& v) { return put(v, &DataOutput::write_f64); }
  FieldWriter& vi32(std::int32_t v) { return put(v, &DataOutput::write_vi32); }
  template <typename T>  // std::int64_t, or a std::uint64_t id sent as a vlong
  FieldWriter& vi64(const T& v) { return put(v, &DataOutput::write_vi64); }
  FieldWriter& text(const std::string& s) { return put(s, &DataOutput::write_text); }
  FieldWriter& bytes(const net::Bytes& b) { return put(b, &DataOutput::write_bytes); }
  template <typename M>
  FieldWriter& nested(const M& m) {
    // fields() is one template for both directions, so it is non-const;
    // the writer only reads what it is handed.
    const_cast<M&>(m).fields(*this);
    return *this;
  }
  /// A vi32 element count, then `each(io, element)` per element.
  template <typename T, typename Each = NestedField>
  FieldWriter& list(const std::vector<T>& v, Each each = {}) {
    out_.write_vi32(static_cast<std::int32_t>(v.size()));
    for (const T& e : v) each(*this, e);
    return *this;
  }

 private:
  template <typename T, typename Wire>
  FieldWriter& put(const T& v, void (DataOutput::*write)(Wire)) {
    (out_.*write)(static_cast<Wire>(v));
    return *this;
  }

  DataOutput& out_;
};

class FieldReader {
 public:
  explicit FieldReader(DataInput& in) : in_(in) {}

  template <typename T>
  FieldReader& u8(T& v) { return get(v, &DataInput::read_u8); }
  FieldReader& boolean(bool& v) { return get(v, &DataInput::read_bool); }
  FieldReader& u16(std::uint16_t& v) { return get(v, &DataInput::read_u16); }
  FieldReader& u32(std::uint32_t& v) { return get(v, &DataInput::read_u32); }
  FieldReader& u64(std::uint64_t& v) { return get(v, &DataInput::read_u64); }
  template <typename T>
  FieldReader& f64(T& v) { return get(v, &DataInput::read_f64); }
  FieldReader& vi32(std::int32_t& v) { return get(v, &DataInput::read_vi32); }
  template <typename T>
  FieldReader& vi64(T& v) { return get(v, &DataInput::read_vi64); }
  FieldReader& text(std::string& s) { return get(s, &DataInput::read_text); }
  FieldReader& bytes(net::Bytes& b) { return get(b, &DataInput::read_bytes); }
  template <typename M>
  FieldReader& nested(M& m) {
    m.fields(*this);
    return *this;
  }
  /// Every element takes at least one byte, so a count that is negative or
  /// above the bytes left is refused before anything is allocated.
  template <typename T, typename Each = NestedField>
  FieldReader& list(std::vector<T>& v, Each each = {}) {
    const std::int32_t n = in_.read_vi32();
    if (n < 0 || static_cast<std::size_t>(n) > in_.remaining()) {
      throw SerializationError("list count " + std::to_string(n) + " exceeds input");
    }
    v.resize(static_cast<std::size_t>(n));
    for (T& e : v) each(*this, e);
    return *this;
  }

 private:
  template <typename T, typename Wire>
  FieldReader& get(T& v, Wire (DataInput::*read)()) {
    v = static_cast<T>((in_.*read)());
    return *this;
  }

  DataInput& in_;
};

/// A Writable whose write() and read_fields() both run Derived::fields.
template <typename Derived>
class Message : public Writable {
 public:
  void write(DataOutput& out) const override {
    FieldWriter(out).nested(static_cast<const Derived&>(*this));
  }
  void read_fields(DataInput& in) override { FieldReader(in).nested(static_cast<Derived&>(*this)); }
};

// --- Primitive writables ---------------------------------------------------

class IntWritable final : public Writable {
 public:
  IntWritable() = default;
  explicit IntWritable(std::int32_t v) : value(v) {}
  void write(DataOutput& out) const override { out.write_i32(value); }
  void read_fields(DataInput& in) override { value = in.read_i32(); }
  std::int32_t value = 0;
};

class LongWritable final : public Writable {
 public:
  LongWritable() = default;
  explicit LongWritable(std::int64_t v) : value(v) {}
  void write(DataOutput& out) const override { out.write_i64(value); }
  void read_fields(DataInput& in) override { value = in.read_i64(); }
  std::int64_t value = 0;
};

class VLongWritable final : public Writable {
 public:
  VLongWritable() = default;
  explicit VLongWritable(std::int64_t v) : value(v) {}
  void write(DataOutput& out) const override { out.write_vi64(value); }
  void read_fields(DataInput& in) override { value = in.read_vi64(); }
  std::int64_t value = 0;
};

class BooleanWritable final : public Writable {
 public:
  BooleanWritable() = default;
  explicit BooleanWritable(bool v) : value(v) {}
  void write(DataOutput& out) const override { out.write_bool(value); }
  void read_fields(DataInput& in) override { value = in.read_bool(); }
  bool value = false;
};

class Text final : public Writable {
 public:
  Text() = default;
  explicit Text(std::string v) : value(std::move(v)) {}
  void write(DataOutput& out) const override { out.write_text(value); }
  void read_fields(DataInput& in) override { value = in.read_text(); }
  std::string value;
};

class BytesWritable final : public Writable {
 public:
  BytesWritable() = default;
  explicit BytesWritable(net::Bytes v) : value(std::move(v)) {}
  void write(DataOutput& out) const override { out.write_bytes(value); }
  void read_fields(DataInput& in) override { value = in.read_bytes(); }
  net::Bytes value;
};

class NullWritable final : public Writable {
 public:
  void write(DataOutput&) const override {}
  void read_fields(DataInput&) override {}
};

}  // namespace rpcoib::rpc
