#include "ccq/common/workspace.hpp"

#include <algorithm>
#include <bit>

#include "ccq/common/telemetry.hpp"

namespace ccq {

namespace {

// Bucket for a *request* of n elements: smallest power of two >= n.
std::size_t bucket_for_request(std::size_t n) {
  return n <= 1 ? 0 : static_cast<std::size_t>(std::bit_width(n - 1));
}

// Bucket a *buffer* files under: largest power of two <= capacity, so
// any request that rounds up to this bucket fits without reallocating.
std::size_t bucket_for_capacity(std::size_t cap) {
  return static_cast<std::size_t>(std::bit_width(cap)) - 1;
}

}  // namespace

Workspace::Arena& Workspace::local_arena_locked() {
  auto& slot = arenas_[std::this_thread::get_id()];
  if (slot == nullptr) slot = std::make_unique<Arena>();
  return *slot;
}

template <typename T>
PoolVec<T> Workspace::acquire(std::size_t n) {
  if (n == 0) return {};
  telemetry::ScopedTimer timer(telemetry::Timer::kWorkspaceAcquire);
  const std::size_t b = bucket_for_request(n);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto& pool = std::get<Buckets<T>>(local_arena_locked());
    if (b < pool.size() && !pool[b].empty()) {
      PoolVec<T> buf = std::move(pool[b].back());
      pool[b].pop_back();
      buf.resize(n);  // capacity >= bucket size >= n: no allocation
      telemetry::add(telemetry::Counter::kWorkspaceHits);
      return buf;
    }
  }
  // Miss: allocate once at full bucket capacity so later requests of any
  // size in this bucket reuse it.
  telemetry::add(telemetry::Counter::kWorkspaceMisses);
  PoolVec<T> buf;
  buf.reserve(std::size_t{1} << b);
  buf.resize(n);
  return buf;
}

template <typename T, typename Alloc>
void Workspace::release(std::vector<T, Alloc>&& buf) {
  static_assert(std::is_same_v<std::vector<T, Alloc>, PoolVec<T>>,
                "Workspace::release takes pool storage (PoolVec<T>)");
  if (buf.capacity() == 0) return;
  const std::size_t b = bucket_for_capacity(buf.capacity());
  std::lock_guard<std::mutex> lock(mutex_);
  auto& pool = std::get<Buckets<T>>(local_arena_locked());
  if (pool.size() <= b) pool.resize(b + 1);
  pool[b].push_back(std::move(buf));
}

#define CCQ_WORKSPACE_POOL(T)                                   \
  template PoolVec<T> Workspace::acquire<T>(std::size_t);       \
  template void Workspace::release(PoolVec<T>&&);
CCQ_WORKSPACE_POOL(float)
CCQ_WORKSPACE_POOL(std::int32_t)
CCQ_WORKSPACE_POOL(std::int16_t)
CCQ_WORKSPACE_POOL(std::uint8_t)
#undef CCQ_WORKSPACE_POOL

void Workspace::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto clear = [](auto& pool) {
    for (auto& bucket : pool) bucket.clear();
  };
  for (auto& [tid, arena] : arenas_) {
    std::apply([&](auto&... pools) { (clear(pools), ...); }, *arena);
  }
}

std::size_t Workspace::pooled_buffers() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  const auto count = [&](const auto& pool) {
    for (const auto& bucket : pool) n += bucket.size();
  };
  for (const auto& [tid, arena] : arenas_) {
    std::apply([&](const auto&... pools) { (count(pools), ...); }, *arena);
  }
  return n;
}

std::size_t Workspace::pooled_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t bytes = 0;
  const auto sum = [&](const auto& pool) {
    for (const auto& bucket : pool) {
      for (const auto& buf : bucket) {
        bytes += buf.capacity() * sizeof(buf[0]);
      }
    }
  };
  for (const auto& [tid, arena] : arenas_) {
    std::apply([&](const auto&... pools) { (sum(pools), ...); }, *arena);
  }
  return bytes;
}

Workspace& Workspace::scratch() {
  static Workspace ws;
  return ws;
}

}  // namespace ccq
