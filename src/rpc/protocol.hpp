// Protocol/method registry and call dispatch.
//
// Hadoop registers protocol interfaces (ClientProtocol, DatanodeProtocol,
// TaskUmbilicalProtocol, ...) with the RPC server and dispatches calls by
// reflection. Here a server registers handlers keyed by the same
// <protocol, method> tuple the paper uses to define a "kind of call" —
// the key both for dispatch and for the message-size-locality history.
#pragma once

#include <coroutine>
#include <functional>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "rpc/writable.hpp"
#include "sim/task.hpp"

namespace rpcoib::rpc {

/// The paper's call identity: a <protocol, method> tuple.
struct MethodKey {
  std::string protocol;
  std::string method;

  friend bool operator<(const MethodKey& a, const MethodKey& b) {
    return a.protocol != b.protocol ? a.protocol < b.protocol : a.method < b.method;
  }
  friend bool operator==(const MethodKey& a, const MethodKey& b) = default;

  std::string to_string() const { return protocol + "." + method; }

  /// For the hashed tables looked up on every call (dispatch, pool
  /// history); reports iterate ordered maps instead.
  struct Hash {
    std::size_t operator()(const MethodKey& k) const noexcept {
      const std::hash<std::string_view> h;
      return h(k.protocol) * 31 + h(k.method);
    }
  };
};

/// Raised at the caller when the server-side handler threw; carries the
/// remote message, like Hadoop's RemoteException.
class RemoteException : public std::runtime_error {
 public:
  explicit RemoteException(const std::string& what) : std::runtime_error(what) {}
};

/// Raised for transport-level failures (connection reset, refused, ...).
class RpcTransportError : public std::runtime_error {
 public:
  explicit RpcTransportError(const std::string& what) : std::runtime_error(what) {}
};

/// Raised at the caller when the server shed the call before executing it
/// (a full call queue, or a NACKed rendezvous under a dry buffer pool).
/// Always safe to retry — even for non-idempotent methods — because the
/// handler never ran. A subtype of RpcTransportError so legacy catch sites
/// keep treating it as a transient failure.
class ServerBusyException : public RpcTransportError {
 public:
  explicit ServerBusyException(const std::string& what) : RpcTransportError(what) {}
};

/// Raised at the caller when the server refused a retried attempt because
/// the durable session holding its dedup state is gone (lease expired,
/// table-evicted, or superseded by a re-opened session). The server can
/// prove neither execution nor non-execution of the first attempt, so this
/// is terminal: the retry loop rethrows it instead of re-sending — another
/// attempt could duplicate a completed call. A subtype of
/// RpcTransportError so legacy catch sites see a connection-class failure.
class SessionExpiredException : public RpcTransportError {
 public:
  explicit SessionExpiredException(const std::string& what) : RpcTransportError(what) {}
};

/// The header in front of every call's param bytes, on both transports:
///   [u64 id | flags][u64 trace id][u64 span id][u64 deadline][text protocol][text method]
/// The trace words ride only under kWireTraceFlag, the deadline only under
/// kWireDeadlineFlag, and kWireRetryFlag marks a retried attempt, so an
/// untraced, deadline-free first attempt keeps the seed's wire format.
struct CallHeader {
  std::uint64_t id = 0;  // the call id, flags stripped
  bool retried = false;
  sim::Time deadline = 0;  // caller's absolute deadline (0 = none)
  trace::TraceContext ctx;
  MethodKey key;
};

inline void write_call_header(DataOutput& out, std::uint64_t call_id, bool retried,
                              sim::Time deadline, const trace::TraceContext& ctx,
                              const MethodKey& key) {
  std::uint64_t word = call_id;
  if (ctx.valid()) word |= trace::kWireTraceFlag;
  if (deadline != 0) word |= trace::kWireDeadlineFlag;
  if (retried) word |= trace::kWireRetryFlag;
  out.write_u64(word);
  if (ctx.valid()) {
    out.write_u64(ctx.trace_id);
    out.write_u64(ctx.span_id);
  }
  if (deadline != 0) out.write_u64(deadline);
  out.write_text(key.protocol);
  out.write_text(key.method);
}

/// Total reader for the header above, leaving `in` at the param bytes.
/// False, with nothing thrown, when the header is truncated or malformed
/// (e.g. a rendezvous source the client reused after timing out).
inline bool read_call_header(DataInput& in, CallHeader& h) {
  std::uint64_t word = 0;
  if (!in.try_read_u64(word)) return false;
  h.ctx = {};
  if ((word & trace::kWireTraceFlag) != 0 &&
      (!in.try_read_u64(h.ctx.trace_id) || !in.try_read_u64(h.ctx.span_id))) {
    return false;
  }
  h.deadline = 0;
  if ((word & trace::kWireDeadlineFlag) != 0 && !in.try_read_u64(h.deadline)) return false;
  h.retried = (word & trace::kWireRetryFlag) != 0;
  h.id = word & trace::kWireIdMask;
  return in.try_read_text(h.key.protocol) && in.try_read_text(h.key.method);
}

/// Low bits of a batch frame's leading u64 (flagged with
/// trace::kWireBatchFlag) holding the sub-message count. 32 bits bounds a
/// batch far beyond any BatchConfig::max_calls while keeping the flag bits
/// clear of the count.
inline constexpr std::uint64_t kWireBatchCountMask = 0xFFFFFFFFULL;

/// Outcome of a batch split (socket frames here, RPCoIB kBatch frames in
/// rpcoib/wire.hpp). Anything but kOk means the frame is dropped whole.
enum class BatchSplit : std::uint8_t {
  kOk,
  kTruncated,  // shorter than the fixed header
  kEmpty,      // count == 0 (never encoded)
  kBadCount,   // the length table runs past the frame
  kBadLength,  // the sub-frame lengths disagree with the frame's size
};

/// True when a socket frame payload's leading big-endian word carries
/// trace::kWireBatchFlag. A peek: no field cost accrues.
inline bool is_wire_batch(net::ByteSpan frame) {
  return frame.size() >= 8 && (frame[0] & (trace::kWireBatchFlag >> 56)) != 0;
}

/// Write a socket batch frame
///   [u32 total][u64 kWireBatchFlag|count][u32 len_i x count][payload_i...]
/// split_wire_batch decodes it once the u32 length prefix is stripped.
inline void encode_wire_batch(DataOutput& out, std::span<const net::ByteSpan> payloads) {
  std::size_t payload_bytes = 0;
  for (const net::ByteSpan p : payloads) payload_bytes += p.size();
  out.write_u32(static_cast<std::uint32_t>(8 + 4 * payloads.size() + payload_bytes));
  out.write_u64(trace::kWireBatchFlag | static_cast<std::uint64_t>(payloads.size()));
  for (const net::ByteSpan p : payloads) out.write_u32(static_cast<std::uint32_t>(p.size()));
  for (const net::ByteSpan p : payloads) out.write_payload(p);
}

/// Split a socket batch frame payload
///   [u64 kWireBatchFlag|count][u32 len_i x count][payload_i...]
/// (its u32 length prefix already stripped) into views of its payloads,
/// every bound checked against `frame.size()` — the bytes received, never
/// the wire's own claims. `in` reads `frame` from its start, so the leading
/// word and the length table accrue their field costs there. `subs` is
/// cleared first and only meaningful on kOk.
inline BatchSplit split_wire_batch(DataInput& in, net::ByteSpan frame,
                                   std::vector<net::ByteSpan>& subs) {
  subs.clear();
  std::uint64_t first = 0;
  if (!in.try_read_u64(first)) return BatchSplit::kTruncated;
  const std::size_t count = first & kWireBatchCountMask;
  if (count == 0) return BatchSplit::kEmpty;
  if (count > (frame.size() - 8) / 4) return BatchSplit::kBadCount;
  std::size_t off = 8 + 4 * count;
  subs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint32_t len = in.read_u32();
    if (len > frame.size() - off) return BatchSplit::kBadLength;
    subs.push_back(frame.subspan(off, len));
    off += len;
  }
  return off == frame.size() ? BatchSplit::kOk : BatchSplit::kBadLength;
}

/// Response status byte, shared by both wire formats:
///   kResp [.. id ..][u8 status][value | error text].
enum class RpcStatus : std::uint8_t {
  kSuccess = 0,
  kError = 1,  // handler threw; body is the error text -> RemoteException
  kBusy = 2,   // call shed before execution; body text -> ServerBusyException
  // Retried attempt refused: its session's dedup state is gone, so the
  // server cannot prove the first attempt never executed. Terminal ->
  // SessionExpiredException. Only ever emitted with sessions enabled, so
  // the sessionless wire never carries this byte.
  kSessionExpired = 3,
};

/// A server-side method implementation: deserialize from `in`, do the work
/// (may suspend in virtual time), serialize the result into `out`.
using MethodHandler = std::function<sim::Co<void>(DataInput& in, DataOutput& out)>;

class Dispatcher {
 public:
  /// The raw form: the handler reads its param and writes its result itself.
  void register_method(std::string protocol, std::string method, MethodHandler h) {
    MethodKey key{std::move(protocol), std::move(method)};
    if (!handlers_.emplace(std::move(key), std::move(h)).second) {
      throw std::logic_error("method registered twice");
    }
  }

  /// Hadoop's RPC.Server.call contract, written once: decode a `Param`,
  /// run `body(param)` — or `body(param, trace_context)` — and write the
  /// result Writable it returns. A body that must suspend returns
  /// sim::Co<Result>. A param that fails to decode never reaches the body,
  /// and a body that throws writes nothing.
  template <typename Param, typename Body>
  void register_method(std::string protocol, std::string method, Body body) {
    register_method(std::move(protocol), std::move(method),
                    [body = std::move(body)](DataInput& in, DataOutput& out) -> sim::Co<void> {
                      Param param;
                      param.read_fields(in);
                      // The body may suspend: it sees a copy held in this
                      // frame, not a view into `in`.
                      const trace::TraceContext ctx = in.trace_context;
                      auto result = invoke_body(body, param, ctx);
                      if constexpr (requires { result.write(out); }) {
                        result.write(out);
                      } else {
                        const auto value = co_await result;
                        value.write(out);
                      }
                      co_return;
                    });
  }

  const MethodHandler* find(const MethodKey& key) const {
    auto it = handlers_.find(key);
    return it == handlers_.end() ? nullptr : &it->second;
  }

  std::size_t size() const { return handlers_.size(); }

 private:
  template <typename Body, typename Param>
  static auto invoke_body(const Body& body, Param& param, const trace::TraceContext& ctx) {
    if constexpr (std::is_invocable_v<const Body&, Param&, const trace::TraceContext&>) {
      return body(param, ctx);
    } else {
      return body(param);
    }
  }

  std::unordered_map<MethodKey, MethodHandler, MethodKey::Hash> handlers_;
};

/// One handler invocation with its error captured, for both servers.
/// Awaited directly — it adds no coroutine frame to the handler's own —
/// and resumes with the call's status: kSuccess, kError when the handler
/// threw (or no handler is registered for the key), or kBusy when what it
/// threw is one of `Busy...` (a transient condition the caller may retry).
/// error() holds the thrown message. Hoist it to a named local before
/// co_await (see task.hpp): it owns the handler's coroutine.
template <typename... Busy>
class Invocation {
 public:
  Invocation(const Dispatcher& dispatcher, const MethodKey& key, DataInput& in,
             DataOutput& out) {
    if (const MethodHandler* handler = dispatcher.find(key)) {
      co_.emplace((*handler)(in, out));
    } else {
      error_ = "unknown method " + key.to_string();
    }
  }

  bool await_ready() const noexcept { return !co_; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> h) noexcept {
    return co_->await_suspend(h);
  }
  RpcStatus await_resume() {
    if (!co_) return RpcStatus::kError;
    try {
      co_->await_resume();
    } catch (const std::exception& e) {
      error_ = e.what();
      return (... || (dynamic_cast<const Busy*>(&e) != nullptr)) ? RpcStatus::kBusy
                                                                  : RpcStatus::kError;
    }
    return RpcStatus::kSuccess;
  }

  const std::string& error() const { return error_; }

 private:
  std::optional<sim::Co<void>> co_;
  std::string error_;
};

}  // namespace rpcoib::rpc
