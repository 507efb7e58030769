#include "rpcoib/buffer_pool.hpp"

#include <cstring>
#include <stdexcept>

#include "trace/trace.hpp"

namespace rpcoib::oib {
namespace {

#ifndef NDEBUG
constexpr net::Byte kUnwrittenByte = 0xA5;
#endif

}  // namespace

NativeBufferPool::NativeBufferPool(cluster::Host& host, verbs::VerbsStack& stack,
                                   PoolConfig cfg)
    : host_(host), pd_(stack, host), cfg_(cfg) {
  if (cfg_.min_class == 0 || cfg_.min_class > cfg_.max_class) {
    throw std::invalid_argument("bad pool class bounds");
  }
  for (std::size_t s = cfg_.min_class; s <= cfg_.max_class; s *= 2) {
    class_sizes_.push_back(s);
  }
  free_.resize(class_sizes_.size());
}

NativeBufferPool::~NativeBufferPool() = default;

std::size_t NativeBufferPool::class_index_for(std::size_t size) const {
  for (std::size_t i = 0; i < class_sizes_.size(); ++i) {
    if (class_sizes_[i] >= size) return i;
  }
  throw std::length_error("buffer request exceeds pool max class");
}

std::size_t NativeBufferPool::class_size_for(std::size_t size) const {
  return class_sizes_[class_index_for(size)];
}

std::unique_ptr<NativeBuffer> NativeBufferPool::make_buffer(std::size_t cls_index) {
  auto buf = std::make_unique<NativeBuffer>();
  buf->cls = cls_index;
  // Left uninitialised, as native memory is: neither making nor registering
  // a buffer writes it, so a ring buffer that only ever carries pattern
  // payloads is never touched. Debug builds fill it with a fixed non-zero
  // byte instead, so a read of bytes nobody wrote moves a golden.
  const std::size_t size = class_sizes_[cls_index];
  buf->storage = std::make_unique_for_overwrite<net::Byte[]>(size);
#ifndef NDEBUG
  std::memset(buf->storage.get(), kUnwrittenByte, size);
#endif
  buf->span = net::MutByteSpan(buf->storage.get(), size);
  return buf;
}

sim::Co<void> NativeBufferPool::initialize(std::size_t extra_size, std::size_t extra_count,
                                           const bool& owner_alive) {
  if (initialized_) co_return;
  initialized_ = true;
  // What to register: buffers_per_class of every pre-populated class, then
  // the extra buffers.
  std::vector<std::pair<std::size_t, std::size_t>> plan;  // {class, count}
  for (std::size_t c = 0; c < class_sizes_.size(); ++c) {
    if (class_sizes_[c] > cfg_.prealloc_max_class) break;
    plan.emplace_back(c, cfg_.buffers_per_class);
  }
  if (extra_size > 0) plan.emplace_back(class_index_for(extra_size), extra_count);
  // Registration happens once at library load; its span is a root of its
  // own trace (no RPC is in flight yet) so the cost stays visible even
  // though it is off every call's critical path.
  trace::SpanScope reg(trace::active(host_.tracer()), "pool.register",
                       trace::Kind::kInternal, trace::Category::kBuffer,
                       trace::TraceContext{}, host_.id());
  std::size_t registered = 0;
  for (const auto& [c, count] : plan) {
    for (std::size_t i = 0; i < count; ++i) {
      // Charge the pinning, then register only if the owner outlived it.
      co_await host_.compute(pd_.registration_cost(class_sizes_[c]));
      if (!owner_alive) co_return;
      std::unique_ptr<NativeBuffer> buf = make_buffer(c);
      buf->mr = pd_.register_mr_untimed(buf->span);
      stats_.registered_bytes += buf->span.size();
      free_[c].push_back(buf.get());
      owned_.push_back(std::move(buf));
      ++registered;
    }
  }
  if (reg) reg.annotate("buffers", std::to_string(registered));
}

NativeBuffer* NativeBufferPool::acquire(std::size_t size) {
  const std::size_t c = class_index_for(size);
  ++stats_.acquires;
  if (!free_[c].empty()) {
    ++stats_.freelist_hits;
    NativeBuffer* buf = free_[c].back();
    free_[c].pop_back();
    buf->leased = true;
    return buf;
  }
  // Pool ran dry for this class: demand-allocate + register (untimed here;
  // the miss is visible in stats and the registration cost is charged by
  // the caller if it cares — on the paper's workloads this path is cold).
  ++stats_.demand_allocations;
  std::unique_ptr<NativeBuffer> buf = make_buffer(c);
  buf->mr = pd_.register_mr_untimed(buf->span);
  stats_.registered_bytes += buf->span.size();
  NativeBuffer* raw = buf.get();
  owned_.push_back(std::move(buf));
  raw->leased = true;
  return raw;
}

NativeBuffer* NativeBufferPool::try_acquire(std::size_t size) {
  const std::size_t c = class_index_for(size);
  if (free_[c].empty() && cfg_.demand_alloc_cap != 0 &&
      stats_.demand_allocations >= cfg_.demand_alloc_cap) {
    ++stats_.demand_denied;
    return nullptr;
  }
  return acquire(size);
}

void NativeBufferPool::release(NativeBuffer* buf) {
  if (buf == nullptr) return;
  if (!buf->leased) throw std::logic_error("double release of pooled buffer");
  buf->leased = false;
  ++stats_.releases;
  free_[buf->cls].push_back(buf);
}

void NativeBufferPool::release_revoked(NativeBuffer* buf) {
  pd_.deregister(buf->mr);
  buf->mr = pd_.register_mr_untimed(buf->span);
  release(buf);
}

NativeBuffer* ShadowPool::acquire_for(const rpc::MethodKey& key) {
  auto it = history_.find(key);
  const std::size_t want = it == history_.end() ? native_.config().min_class : it->second;
  return native_.acquire(want);
}

void ShadowPool::update_history(const rpc::MethodKey& key, std::size_t used) {
  const std::size_t fit = native_.class_size_for(used == 0 ? 1 : used);
  auto [it, inserted] = history_.try_emplace(key, fit);
  if (!inserted) {
    if (fit > it->second) {
      // The stream had to re-get bigger buffers: grow the record.
      it->second = fit;
      ++native_.stats().history_misses;
    } else if (fit < it->second) {
      // Oversized: shrink toward the actual need to bound footprint.
      it->second = fit;
      ++native_.stats().history_shrinks;
    } else {
      ++native_.stats().history_hits;
    }
  }
}

void ShadowPool::release_for(const rpc::MethodKey& key, NativeBuffer* buf,
                             std::size_t used) {
  update_history(key, used);
  native_.release(buf);
}

std::size_t ShadowPool::history(const rpc::MethodKey& key) const {
  auto it = history_.find(key);
  return it == history_.end() ? 0 : it->second;
}

}  // namespace rpcoib::oib
