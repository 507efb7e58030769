// The buffers at the center of the paper's bottleneck analysis.
//
// DataOutputBuffer implements Hadoop's Algorithm 1 verbatim: a JVM-heap
// byte array starting at 32 bytes (10 KB on the server side) that grows by
// `max(2*len, needed)` with an old-data copy on every adjustment. Each
// allocation/copy both *really happens* (so adjustment counts in Table I
// are measured, not asserted) and accrues modeled JVM cost. The array is
// allocated uninitialised: the JVM's zero-fill is not part of the model,
// and only the written prefix is ever read.
//
// BufferedOutputStream models the java.io.BufferedOutputStream behind
// DataOutputStream in Listing 1: one more heap copy on the way to the
// socket, plus the JVM-heap -> native-I/O copy on flush. Its heap buffer
// is charged, not reserved, and flush() hands the buffered bytes on
// without copying them again.
#pragma once

#include <algorithm>
#include <cstring>
#include <memory>
#include <utility>

#include "net/bytes.hpp"
#include "rpc/writable.hpp"

namespace rpcoib::rpc {

/// Counters a buffer exposes for the paper's profiling tables.
struct BufferStats {
  std::uint64_t mem_adjustments = 0;  // Algorithm 1 reallocation events
  std::uint64_t allocations = 0;      // heap allocations (incl. initial)
  std::uint64_t bytes_copied = 0;     // all memcpy traffic
  sim::Dur alloc_time = 0;            // modeled time spent in allocation only
};

/// Hadoop's client-side default initial buffer (32 B) and the server-side
/// initial buffer (10 KB) called out in Section II-A.
inline constexpr std::size_t kClientInitialBuffer = 32;
inline constexpr std::size_t kServerInitialBuffer = 10 * 1024;

class DataOutputBuffer final : public DataOutput {
 public:
  DataOutputBuffer(const cluster::CostModel& cm, std::size_t initial_size = kClientInitialBuffer)
      : DataOutput(cm),
        buf_(std::make_unique_for_overwrite<net::Byte[]>(initial_size)),
        capacity_(initial_size) {
    // `new DataOutputBuffer()` allocates the initial internal array.
    stats_.allocations++;
    const sim::Dur d = cm.heap_alloc(initial_size);
    stats_.alloc_time += d;
    accrue(d);
  }

  // Algorithm 1: DEFAULT ALGORITHM FOR MEMORY ADJUSTMENT.
  void write_raw(net::ByteSpan bs) override {
    const std::size_t new_count = count_ + bs.size();
    if (new_count > capacity_) {
      const std::size_t new_len = std::max(capacity_ * 2, new_count);
      auto new_buf = std::make_unique_for_overwrite<net::Byte[]>(new_len);  // (1) reallocate
      {
        const sim::Dur d = cost_model().heap_alloc(new_len);
        stats_.alloc_time += d;
        accrue(d);
        stats_.allocations++;
      }
      std::memcpy(new_buf.get(), buf_.get(), count_);  // (2) copy old data
      accrue(cost_model().heap_copy(count_));
      stats_.bytes_copied += count_;
      buf_ = std::move(new_buf);
      capacity_ = new_len;
      stats_.mem_adjustments++;
    }
    // (3) copy new data; an empty span may carry a null pointer.
    if (!bs.empty()) std::memcpy(buf_.get() + count_, bs.data(), bs.size());
    accrue(cost_model().heap_copy(bs.size()));
    stats_.bytes_copied += bs.size();
    count_ = new_count;
  }

  net::ByteSpan data() const { return net::ByteSpan(buf_.get(), count_); }
  std::size_t length() const { return count_; }
  std::size_t capacity() const { return capacity_; }

  /// Hadoop's reset(): keeps the (possibly grown) array, rewinds count.
  void reset() { count_ = 0; }

  const BufferStats& stats() const { return stats_; }

 private:
  std::unique_ptr<net::Byte[]> buf_;  // capacity_ bytes, the first count_ written
  std::size_t capacity_;
  std::size_t count_ = 0;
  BufferStats stats_;
};

/// Reads from a borrowed byte range (Hadoop DataInputBuffer /
/// ByteArrayInputStream). The referenced bytes must outlive the reader.
class DataInputBuffer final : public DataInput {
 public:
  DataInputBuffer(const cluster::CostModel& cm, net::ByteSpan data)
      : DataInput(cm), data_(data) {}

  void read_raw(net::MutByteSpan out) override {
    if (out.size() > remaining()) throw SerializationError("read past end of buffer");
    std::memcpy(out.data(), data_.data() + pos_, out.size());
    pos_ += out.size();
  }

  std::size_t remaining() const override { return data_.size() - pos_; }
  std::size_t position() const { return pos_; }

 private:
  net::ByteSpan data_;
  std::size_t pos_ = 0;
};

/// Writes into a borrowed fixed byte range; a write past its end throws.
class SpanOutput final : public DataOutput {
 public:
  SpanOutput(const cluster::CostModel& cm, net::MutByteSpan out) : DataOutput(cm), room_(out) {}
  void write_raw(net::ByteSpan bs) override {
    if (bs.size() > room_.size()) throw SerializationError("write past end of buffer");
    room_ = net::MutByteSpan(std::copy(bs.begin(), bs.end(), room_.begin()), room_.end());
  }

 private:
  net::MutByteSpan room_;  // what is left of the range
};

/// java.io.BufferedOutputStream: accumulates into a heap buffer; the flush
/// callback receives completed chunks (the socket write path). Copy costs
/// accrue here; the *send* itself is performed by the owning coroutine via
/// take_pending().
class BufferedOutputStream final : public DataOutput {
 public:
  BufferedOutputStream(const cluster::CostModel& cm, std::size_t buf_size = 8192)
      : DataOutput(cm), buf_size_(buf_size) {
    // The JVM allocates the whole array; the host buffer grows with what
    // is written, so a short frame does not carry an 8 KB capacity.
    stats_.allocations++;
    const sim::Dur d = cm.heap_alloc(buf_size);
    stats_.alloc_time += d;
    accrue(d);
  }

  void write_raw(net::ByteSpan bs) override {
    // Copy into the internal heap buffer (the extra copy called out in
    // Section II-A), spilling to pending_ when full.
    accrue(cost_model().heap_copy(bs.size()));
    stats_.bytes_copied += bs.size();
    buf_.insert(buf_.end(), bs.begin(), bs.end());
    if (buf_.size() >= buf_size_) spill();
  }

  /// flush(): everything buffered becomes a pending chunk, paying the
  /// JVM-heap -> native-I/O copy.
  void flush() {
    spill();
    if (!pending_.empty()) {
      accrue(cost_model().native_copy(pending_.size()));
    }
  }

  /// Bytes ready for the socket after flush().
  net::Bytes take_pending() { return std::exchange(pending_, net::Bytes{}); }

  const BufferStats& stats() const { return stats_; }

 private:
  // The first spill hands buf_ over whole; later ones append to it.
  void spill() {
    if (pending_.empty()) {
      pending_.swap(buf_);
    } else {
      pending_.insert(pending_.end(), buf_.begin(), buf_.end());
      buf_.clear();
    }
  }

  std::size_t buf_size_;
  net::Bytes buf_;
  net::Bytes pending_;
  BufferStats stats_;
};

}  // namespace rpcoib::rpc
