// SLA primitives for the serving stack: priorities, deadlines, and
// weighted fair scheduling.
//
// PR 8/9 built multi-model serving with FIFO admission per model; this
// module adds the quality-of-service layer (ROADMAP item 1): every
// request carries a `Priority` and an optional relative deadline, a
// full queue sheds its lowest-priority request instead of blanket-
// rejecting, and the worker pool picks the next model to flush by
// weighted fair (virtual-time) accounting rather than oldest-request
// age, so a hot model cannot starve a quiet one.
//
// Everything here is deliberately thread-free and clock-free: callers
// pass `now_ns` in (the server routes it through its injectable clock,
// `ServeConfig::now_fn`), and the queue/flush/pick decisions are plain
// functions over plain state.  That is what makes the scheduler's
// properties — shed order, deadline expiry at dequeue, fair-share
// convergence, starvation freedom — assertable *exactly* in
// `tests/serve_sla_test.cpp`'s deterministic harness instead of
// probabilistically under real sleeps, while the `InferenceServer`
// worker loop runs the very same code paths under its mutex.
//
// Policy summary (docs/SERVING.md §SLA-aware serving):
//   * shed order — lowest priority class first, FIFO within a class
//     (the oldest request of the lowest class has already absorbed the
//     most queueing delay, so under overload it is the most likely to
//     miss its SLA anyway and dropping it loses the least);
//   * deadlines are *relative* budgets (`deadline_us` from admission)
//     bounding time-to-dequeue: an expired request is dropped at batch
//     composition time with a typed `DeadlineExceededError` instead of
//     occupying a batch slot.  Admission never rejects on deadline — a
//     relative budget cannot be expired at admission;
//   * fair scheduling — each model accrues virtual time at
//     `samples / weight` as it is served; the flushable model with the
//     least virtual time flushes next, and a model going idle→busy
//     rejoins at the scheduler's virtual clock so idle credit never
//     turns into a burst;
//   * batching hold — a partial batch flushes once its oldest request
//     has waited the model's learned hold, never more than
//     `max_delay_us`.  `sla_next_hold_ns` halves the hold when a
//     timed-out flush spent its second half with no arrival, so a
//     closed-loop client stops paying for partners that never come
//     (adaptive batching after Clipper, Crankshaw et al., NSDI 2017).
//     The hold never grows back: under load batches still fill, because
//     requests queue while the workers are busy.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <string>

#include "ccq/common/error.hpp"

namespace ccq::serve {

/// Per-request service class.  Order matters: higher enumerator =
/// served sooner, shed later.
enum class Priority : std::uint8_t { kLow = 0, kNormal = 1, kHigh = 2 };

inline constexpr std::size_t kPriorityCount = 3;

const char* priority_name(Priority priority);
/// Parse "low" / "normal" / "high" (throws ccq::Error otherwise).
Priority priority_from_string(const std::string& name);

/// The request's queueing budget expired before a worker dequeued it:
/// dropped without occupying a batch slot.  Delivered through the
/// submit future (and, over the wire, as an error reply).
class DeadlineExceededError : public Error {
 public:
  DeadlineExceededError(const std::string& model, std::uint64_t deadline_us)
      : Error("request for model " + model + " missed its " +
              std::to_string(deadline_us) +
              "us deadline while queued: dropped at dequeue") {}
};

/// The request was admitted but later evicted to make room for
/// higher-priority traffic on a full queue.  Retryable, like
/// QueueFullError — delivered through the submit future.
class RequestShedError : public Error {
 public:
  RequestShedError(const std::string& model, Priority priority)
      : Error("request for model " + model + " (priority " +
              std::string(priority_name(priority)) +
              ") shed to admit higher-priority traffic") {}
};

inline constexpr std::uint64_t kNoEventNs =
    std::numeric_limits<std::uint64_t>::max();

/// Microseconds → nanoseconds, saturating at u64 max instead of
/// wrapping: an operator's or a client's huge budget means "effectively
/// never", not a few hundred nanoseconds.
inline std::uint64_t us_to_ns_saturating(std::uint64_t us) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  return us > kMax / 1000 ? kMax : us * 1000;
}

/// Absolute expiry instant for a relative `deadline_us` budget admitted
/// at `now_ns`.  0 = no deadline.  Saturating in both the us→ns scale
/// and the addition, so a hostile u64-max budget admits as "effectively
/// never expires" instead of wrapping into the past.
inline std::uint64_t deadline_instant_ns(std::uint64_t now_ns,
                                         std::uint64_t deadline_us) {
  if (deadline_us == 0) return 0;
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const std::uint64_t budget_ns = us_to_ns_saturating(deadline_us);
  return budget_ns > kMax - now_ns ? kMax : now_ns + budget_ns;
}

inline bool deadline_expired(std::uint64_t deadline_ns, std::uint64_t now_ns) {
  return deadline_ns != 0 && now_ns >= deadline_ns;
}

/// One model's admission queue: a FIFO deque per priority class.
/// Requires `Request` to expose `priority`, `enqueue_ns` and
/// `deadline_ns` fields (the server's `detail::Request`; the
/// deterministic tests instantiate it over a four-field struct).
/// Not thread-safe — guarded by the owning server's mutex.
template <typename Request>
class SlaQueue {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  void push(Request&& request) {
    classes_[static_cast<std::size_t>(request.priority)].push_back(
        std::move(request));
    ++size_;
  }

  /// Lowest priority class present.  Precondition: !empty().
  Priority lowest() const {
    for (std::size_t c = 0; c < kPriorityCount; ++c) {
      if (!classes_[c].empty()) return static_cast<Priority>(c);
    }
    return Priority::kHigh;  // unreachable under the precondition
  }

  /// Remove and return the oldest request of the lowest non-empty
  /// class — the shed-order contract.  Precondition: !empty().
  Request shed_lowest() {
    for (auto& dq : classes_) {
      if (dq.empty()) continue;
      Request shed = std::move(dq.front());
      dq.pop_front();
      --size_;
      return shed;
    }
    throw Error("shed_lowest on an empty SlaQueue");
  }

  /// Oldest request of the highest non-empty class — the next request a
  /// batch takes.  Precondition: !empty().
  const Request& front() const {
    for (std::size_t c = kPriorityCount; c-- > 0;) {
      if (!classes_[c].empty()) return classes_[c].front();
    }
    throw Error("front on an empty SlaQueue");
  }

  Request pop_front() {
    for (std::size_t c = kPriorityCount; c-- > 0;) {
      if (classes_[c].empty()) continue;
      Request request = std::move(classes_[c].front());
      classes_[c].pop_front();
      --size_;
      return request;
    }
    throw Error("pop_front on an empty SlaQueue");
  }

  /// Earliest admission instant across every queued request (the
  /// batch-fill flush deadline anchors on it).  Precondition: !empty().
  std::uint64_t oldest_enqueue_ns() const {
    std::uint64_t oldest = kNoEventNs;
    for (const auto& dq : classes_) {
      // Within a class the deque is FIFO, so the front is its oldest.
      if (!dq.empty()) oldest = std::min(oldest, dq.front().enqueue_ns);
    }
    return oldest;
  }

  /// Earliest expiry instant among queued requests; kNoEventNs when no
  /// request carries a deadline.  O(size) — deadlines are per-request,
  /// not FIFO-ordered, and queues are capacity-bounded.
  std::uint64_t earliest_deadline_ns() const {
    std::uint64_t earliest = kNoEventNs;
    for (const auto& dq : classes_) {
      for (const Request& request : dq) {
        if (request.deadline_ns != 0) {
          earliest = std::min(earliest, request.deadline_ns);
        }
      }
    }
    return earliest;
  }

  /// Remove every request whose deadline has passed, feeding each to
  /// `sink` in shed order (lowest class first, FIFO within a class).
  /// This is the dequeue-time expiry sweep: it runs when a worker
  /// flushes the model, so an expired request never reaches a batch.
  template <typename Sink>
  void expire(std::uint64_t now_ns, Sink&& sink) {
    for (auto& dq : classes_) {
      for (std::size_t i = 0; i < dq.size();) {
        if (deadline_expired(dq[i].deadline_ns, now_ns)) {
          sink(std::move(dq[i]));
          dq.erase(dq.begin() + static_cast<std::ptrdiff_t>(i));
          --size_;
        } else {
          ++i;
        }
      }
    }
  }

 private:
  std::array<std::deque<Request>, kPriorityCount> classes_;
  std::size_t size_ = 0;
};

/// The scheduler's per-model view at one decision instant — the whole
/// input to the flush/park/pick functions below.  The server builds one
/// per active model under its mutex; the deterministic test harness
/// builds them from simulated models.  Same functions, same decisions.
struct SchedView {
  std::size_t queued = 0;
  std::uint64_t oldest_ns = 0;               ///< oldest admission instant
  std::uint64_t newest_ns = 0;               ///< newest admission instant
  std::uint64_t earliest_deadline_ns = kNoEventNs;
  std::size_t max_batch = 1;
  std::uint64_t hold_ns = 0;  ///< learned batching hold (≤ max_delay)
  bool force = false;  ///< stopping / retired: flush immediately
  double vtime = 0.0;  ///< virtual time accrued (served / weight)
};

/// A model flushes when the batch is full, the oldest request aged past
/// the model's learned hold, any queued deadline expired (so the drop
/// reply is prompt), or draining is forced (stop / retirement).
inline bool sla_flushable(const SchedView& m, std::uint64_t now_ns) {
  if (m.queued == 0) return false;
  if (m.force || m.queued >= m.max_batch) return true;
  if (now_ns >= m.oldest_ns && now_ns - m.oldest_ns >= m.hold_ns) {
    return true;
  }
  return m.earliest_deadline_ns != kNoEventNs &&
         now_ns >= m.earliest_deadline_ns;
}

/// The hold after a flush at `now_ns`, where `m` is the flushed model's
/// queue after the expiry sweep (so expired requests do not count).  A
/// flush is judged by its tail, the time from the newest arrival to the
/// flush:
///   * the hold timed out with a tail of at least half the hold — the
///     second half waited for arrivals that never came, so halve it
///     (below 1 us it becomes 0);
///   * anything else (forced, deadline-driven, a batch that filled
///     first, or a timeout that arrivals kept joining) leaves it as is.
/// A fresh model starts at `max_delay_us`, so it batches exactly as a
/// fixed hold would until its traffic shows the hold is not paying.
/// Nothing grows the hold: it cannot raise throughput, since a busy
/// worker's backlog already fills batches under load, and it adds wait.
inline std::uint64_t sla_next_hold_ns(const SchedView& m,
                                      std::uint64_t now_ns) {
  if (m.queued == 0 || m.force) return m.hold_ns;
  const bool timed_out =
      now_ns >= m.oldest_ns && now_ns - m.oldest_ns >= m.hold_ns;
  const std::uint64_t tail = now_ns >= m.newest_ns ? now_ns - m.newest_ns : 0;
  if (!timed_out || tail < m.hold_ns / 2) return m.hold_ns;
  const std::uint64_t halved = m.hold_ns / 2;
  return halved < 1000 ? 0 : halved;
}

/// Next instant this model could become flushable without new arrivals
/// (what a worker parks until); kNoEventNs when its queue is empty.
inline std::uint64_t sla_next_event_ns(const SchedView& m) {
  if (m.queued == 0) return kNoEventNs;
  if (m.force || m.queued >= m.max_batch) return 0;  // due now
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const std::uint64_t fill =
      m.hold_ns > kMax - m.oldest_ns ? kMax : m.oldest_ns + m.hold_ns;
  return std::min(fill, m.earliest_deadline_ns);
}

/// Weighted fair pick order between two flushable models: least virtual
/// time first (each model accrues `samples / weight` as it is served),
/// oldest front request as the tie-break so equal-share models still
/// drain oldest-first.
inline bool sla_prefer(const SchedView& a, const SchedView& b) {
  if (a.vtime != b.vtime) return a.vtime < b.vtime;
  return a.oldest_ns < b.oldest_ns;
}

}  // namespace ccq::serve
