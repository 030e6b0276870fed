// Workspace: a size-bucketed buffer pool for steady-state allocation reuse.
//
// The CCQ loop (Algorithm 1) is evaluation-heavy — every quantization
// step runs U probe forwards plus full-validation sweeps — and each
// forward used to heap-allocate its output tensors, im2col column
// buffers and quantized-weight temporaries from scratch.  A Workspace
// breaks that churn: layers acquire buffers from it, hand results back
// via `recycle`, and after one warm-up pass every acquisition is served
// from the pool (zero heap allocations; assert with CCQ_COUNT_ALLOCS /
// `alloc_stats`, see alloc.hpp).
//
// Design:
//   * Buffers live in power-of-two capacity buckets: `acquire(n)` pops
//     from the bucket for the smallest power of two >= n, so a buffer
//     recycled at one size is reusable for any request that rounds to
//     the same bucket.  A miss allocates one buffer at full bucket
//     capacity; steady-state shape jitter (e.g. a ragged final eval
//     chunk) therefore still hits the pool.
//   * Buffers are segregated into per-thread sub-arenas keyed by the
//     releasing/acquiring thread, so `parallel_for` workers never
//     exchange buffers — reuse stays thread-local (cache-warm) and the
//     pool's contents are deterministic per thread.  All bookkeeping is
//     mutex-guarded, so concurrent acquire/release from inside a
//     parallel region is safe.
//   * Every element type (float, int32, int16, uint8) has its own bucket
//     list in each arena; `acquire<T>` / `release` and the RAII
//     `Lease<T>` are the one interface over all four.
//   * Pooling never changes numerics: a workspace tensor has the same
//     shape/content as its heap-allocated counterpart, so workspace and
//     legacy forwards are bit-identical (regression-tested).
//
// Lifetime contract: `reset()` frees only *pooled* (free) buffers —
// outstanding tensors and leases are unaffected and may still be
// recycled afterwards.  The Workspace must outlive its leases.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ccq/common/alloc.hpp"
#include "ccq/tensor/tensor.hpp"

namespace ccq {

class Workspace {
 public:
  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  // ---- raw buffer pool --------------------------------------------------
  // One pool per element type: float (layer tensors, im2col columns) and
  // int32 / int16 / uint8 (the igemm deployment path's activation codes,
  // column buffers and repacked vector-kernel panels), so warm float and
  // warm integer inference are both allocation-free.

  /// A buffer of exactly `n` T with unspecified contents.  Served from
  /// the calling thread's arena when a bucket match exists; falls back
  /// to one heap allocation of the full bucket capacity.  T is float,
  /// int32, int16 or uint8.
  template <typename T = float>
  PoolVec<T> acquire(std::size_t n);

  /// Return a buffer to the calling thread's arena (the pool of its
  /// element type).  Zero-capacity buffers are dropped.
  template <typename T, typename Alloc>
  void release(std::vector<T, Alloc>&& buf);

  /// RAII scratch lease of `n` T: acquires on construction, returns the
  /// buffer to its pool on destruction.  Movable, not copyable; a
  /// move-assignment returns the overwritten buffer to the pool first.
  template <typename T>
  class Lease {
   public:
    Lease(Workspace& ws, std::size_t n) : ws_(&ws), buf_(ws.acquire<T>(n)) {}
    Lease(Lease&& other) noexcept
        : ws_(std::exchange(other.ws_, nullptr)), buf_(std::move(other.buf_)) {}
    Lease& operator=(Lease&& other) noexcept {
      if (this != &other) {
        give_back();
        ws_ = std::exchange(other.ws_, nullptr);
        buf_ = std::move(other.buf_);
      }
      return *this;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { give_back(); }

    T* data() { return buf_.data(); }
    const T* data() const { return buf_.data(); }
    std::size_t size() const { return buf_.size(); }
    std::span<T> span() { return {buf_.data(), buf_.size()}; }

   private:
    void give_back() {
      if (ws_ != nullptr) ws_->release(std::move(buf_));
    }

    Workspace* ws_;
    PoolVec<T> buf_;
  };

  /// Lease `n` T of scratch (unspecified contents).
  template <typename T>
  Lease<T> lease(std::size_t n) {
    return Lease<T>(*this, n);
  }

  // ---- pool-backed tensors (inline: header-only Tensor bridge) ----------
  /// Zero-filled tensor backed by pool storage.
  Tensor tensor(Shape shape) {
    const std::size_t n = shape_numel(shape);
    FloatVec buf = acquire(n);
    std::fill(buf.begin(), buf.end(), 0.0f);
    return Tensor::adopt(std::move(shape), std::move(buf));
  }

  /// Pool-backed tensor with unspecified contents (for outputs that are
  /// fully overwritten).
  Tensor tensor_uninit(Shape shape) {
    const std::size_t n = shape_numel(shape);
    return Tensor::adopt(std::move(shape), acquire(n));
  }

  /// Return a tensor's storage to the pool; `t` is left empty.
  void recycle(Tensor&& t) { release(t.release_storage()); }

  // ---- maintenance ------------------------------------------------------
  /// Drop every pooled (free) buffer.  Outstanding tensors/leases are
  /// untouched and may still be recycled into the (now empty) pool.
  void reset();

  /// Free buffers currently pooled across all arenas and element types
  /// (test hook).
  std::size_t pooled_buffers() const;
  /// Bytes of storage those buffers hold (by capacity).
  std::size_t pooled_bytes() const;

  /// Process-global workspace used by the legacy `forward(x)` shims, so
  /// callers that never thread a Workspace through still get pooling.
  static Workspace& scratch();

 private:
  // One free-list vector per power-of-two capacity bucket, one bucket
  // list per element type.
  template <typename T>
  using Buckets = std::vector<std::vector<PoolVec<T>>>;
  using Arena = std::tuple<Buckets<float>, Buckets<std::int32_t>,
                           Buckets<std::int16_t>, Buckets<std::uint8_t>>;

  Arena& local_arena_locked();  // requires mutex_ held

  mutable std::mutex mutex_;
  std::unordered_map<std::thread::id, std::unique_ptr<Arena>> arenas_;
};

}  // namespace ccq
