// SLA scheduling for the serving stack: priorities, deadlines, weighted
// fair scheduling and the learned batching hold, so a hot model cannot
// starve a quiet one and overload drops the least valuable work first
// (docs/SERVING.md §SLA-aware serving).
//
// Everything here is deliberately thread-free and clock-free: callers
// pass `now_ns` in (the server routes it through its injectable clock,
// `ServeConfig::now_fn`).  One state type, `SlaModel`, holds a model's
// queue and everything the rules read, and two steps combine the rules:
// `sla_admit` (shed-or-reject, fair-share rejoin) and `sla_flush` (pick,
// expiry sweep, hold learning, batch composition, fair-share charge).
// The `InferenceServer` runs both under its mutex, and
// `tests/serve_sla_test.cpp`'s deterministic simulator runs the very
// same two on a virtual clock.  That is what makes the scheduler's
// properties — shed order, deadline expiry at dequeue, fair-share
// convergence, starvation freedom — assertable *exactly* instead of
// probabilistically under real sleeps.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <string>
#include <vector>

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
/// submit future (and, over the wire, as an error reply).  Budgets are
/// relative to admission, so admission never rejects on one.
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
/// deterministic tests instantiate it over a small struct).
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
  Priority lowest() const { return static_cast<Priority>(end_class(false)); }

  /// Remove and return the oldest request of the lowest non-empty
  /// class — the shed-order contract.  Precondition: !empty().
  Request shed_lowest() { return take(end_class(false)); }

  /// Oldest request of the highest non-empty class — the next request a
  /// batch takes.  Precondition: !empty().
  const Request& front() const { return classes_[end_class(true)].front(); }

  Request pop_front() { return take(end_class(true)); }

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
  /// The highest (or lowest) non-empty class.
  std::size_t end_class(bool highest) const {
    for (std::size_t i = 0; i < kPriorityCount; ++i) {
      const std::size_t c = highest ? kPriorityCount - 1 - i : i;
      if (!classes_[c].empty()) return c;
    }
    throw Error("SlaQueue is empty");
  }

  Request take(std::size_t c) {
    Request request = std::move(classes_[c].front());
    classes_[c].pop_front();
    --size_;
    return request;
  }

  std::array<std::deque<Request>, kPriorityCount> classes_;
  std::size_t size_ = 0;
};

/// One model's scheduling state: its queue, the knobs the rules read and
/// what they learn.  The server's `detail::LoadedModel` and the
/// deterministic tests' simulated model both derive from it, so the two
/// steps below (`sla_admit`, `sla_flush`) run the same code on both.
/// `sla_flush` also needs `Request::rung` (−1 = no override).  Guarded
/// by the owning server's mutex.
template <typename Request>
struct SlaModel {
  SlaQueue<Request> queue{};
  std::size_t max_batch = 1;
  std::size_t capacity = 1;  ///< admission bound
  double weight = 1.0;       ///< fair-share weight (> 0)
  /// Learned batching hold: starts at max_delay, updated at each flush
  /// by `sla_next_hold_ns`, never above its start.
  std::uint64_t hold_ns = 0;
  std::uint64_t newest_ns = 0;  ///< newest admission instant
  double vtime = 0.0;  ///< virtual time accrued (served / weight)
  bool force = false;  ///< unloaded or stopping: flush at once
};

/// A model flushes when the batch is full, the oldest request aged past
/// the model's learned hold, any queued deadline expired (so the drop
/// reply is prompt), or draining is forced (stop / retirement).  The
/// O(queue) deadline scan runs only when nothing else decided.
template <typename Request>
bool sla_flushable(const SlaModel<Request>& m, std::uint64_t now_ns) {
  if (m.queue.empty()) return false;
  if (m.force || m.queue.size() >= m.max_batch) return true;
  const std::uint64_t oldest = m.queue.oldest_enqueue_ns();
  if (now_ns >= oldest && now_ns - oldest >= m.hold_ns) return true;
  const std::uint64_t deadline = m.queue.earliest_deadline_ns();
  return deadline != kNoEventNs && now_ns >= deadline;
}

/// The hold after a flush at `now_ns`, judged on the flushed model's
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
/// (Adaptive batching after Clipper, Crankshaw et al., NSDI 2017.)
template <typename Request>
std::uint64_t sla_next_hold_ns(const SlaModel<Request>& m,
                               std::uint64_t now_ns) {
  if (m.queue.empty() || m.force) return m.hold_ns;
  const std::uint64_t oldest = m.queue.oldest_enqueue_ns();
  const bool timed_out = now_ns >= oldest && now_ns - oldest >= m.hold_ns;
  const std::uint64_t tail = now_ns >= m.newest_ns ? now_ns - m.newest_ns : 0;
  if (!timed_out || tail < m.hold_ns / 2) return m.hold_ns;
  const std::uint64_t halved = m.hold_ns / 2;
  return halved < 1000 ? 0 : halved;
}

/// Next instant this model could become flushable without new arrivals
/// (what a worker parks until); kNoEventNs when its queue is empty.
template <typename Request>
std::uint64_t sla_next_event_ns(const SlaModel<Request>& m) {
  if (m.queue.empty()) return kNoEventNs;
  if (m.force || m.queue.size() >= m.max_batch) return 0;  // due now
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const std::uint64_t oldest = m.queue.oldest_enqueue_ns();
  const std::uint64_t fill =
      m.hold_ns > kMax - oldest ? kMax : oldest + m.hold_ns;
  return std::min(fill, m.queue.earliest_deadline_ns());
}

/// Weighted fair pick order between two flushable models: least virtual
/// time first (each model accrues `samples / weight` as it is served),
/// oldest front request as the tie-break so equal-share models still
/// drain oldest-first.
template <typename Request>
bool sla_prefer(const SlaModel<Request>& a, const SlaModel<Request>& b) {
  if (a.vtime != b.vtime) return a.vtime < b.vtime;
  return a.queue.oldest_enqueue_ns() < b.queue.oldest_enqueue_ns();
}

/// What admission did with an incoming request.
enum class SlaAdmission { kQueued, kShed, kRejected };

/// The admit step.  A full queue sheds its lowest-priority request when
/// the incomer strictly outranks it (the oldest of the lowest class has
/// absorbed the most queueing delay, so under overload it is the most
/// likely to miss its SLA anyway): `kShed`, the victim moved into
/// `victim`.  Otherwise the incomer is turned away, untouched:
/// `kRejected`.  So a high-priority request is never rejected while
/// lower-priority work is queued.  A model going idle→busy rejoins at
/// the virtual clock `vclock`, so idle time never becomes a burst.
template <typename Request>
SlaAdmission sla_admit(SlaModel<Request>& m, Request&& request, double vclock,
                       Request& victim) {
  SlaAdmission outcome = SlaAdmission::kQueued;
  if (m.queue.size() >= m.capacity) {
    if (!(m.queue.lowest() < request.priority)) return SlaAdmission::kRejected;
    victim = m.queue.shed_lowest();
    outcome = SlaAdmission::kShed;
  }
  if (m.queue.empty()) m.vtime = std::max(m.vtime, vclock);
  m.newest_ns = std::max(m.newest_ns, request.enqueue_ns);
  m.queue.push(std::move(request));
  return outcome;
}

/// What one flush step did: the flushed model and its batch's rung, or,
/// when no model was due, the earliest instant one could be.
template <typename ModelPtr>
struct SlaFlush {
  ModelPtr model{};                          ///< null: nothing was due
  std::uint64_t next_event_ns = kNoEventNs;  ///< when `model` is null
  std::int32_t rung = 0;                     ///< the batch's operating point
};

/// The flush step over `models` (pointers to SlaModel-derived states) at
/// `now_ns`.  The flushable model `sla_prefer` ranks first is flushed:
/// the virtual clock `vclock` advances to it, its expired requests are
/// swept into `expired` (so none occupies a batch slot), its hold learns
/// from what the sweep left, up to `max_batch` requests move into
/// `batch`, and it is charged `batch.size() / weight` virtual time, so a
/// heavier model drains proportionally more batches.  The batch's rung
/// is the front request's override, else `choose_rung(model)`'s pick
/// (the server asks the model's controller); only requests with no
/// override or the same one join, so a batch is always one precision.
template <typename Models, typename Request, typename ChooseRung>
auto sla_flush(const Models& models, std::uint64_t now_ns, double& vclock,
               std::vector<Request>& expired, std::vector<Request>& batch,
               ChooseRung&& choose_rung) {
  SlaFlush<typename Models::value_type> flush;
  for (const auto& model : models) {
    if (sla_flushable(*model, now_ns) &&
        (!flush.model || sla_prefer(*model, *flush.model))) {
      flush.model = model;
    }
  }
  if (!flush.model) {
    for (const auto& model : models) {
      flush.next_event_ns =
          std::min(flush.next_event_ns, sla_next_event_ns(*model));
    }
    return flush;
  }
  auto& m = *flush.model;
  vclock = std::max(vclock, m.vtime);
  m.queue.expire(now_ns, [&](Request&& request) {
    expired.push_back(std::move(request));
  });
  m.hold_ns = sla_next_hold_ns(m, now_ns);
  if (!m.queue.empty()) {
    const std::int32_t front = m.queue.front().rung;
    flush.rung = front >= 0 ? front : choose_rung(m);
    while (batch.size() < m.max_batch && !m.queue.empty()) {
      const std::int32_t rung = m.queue.front().rung;
      if (rung >= 0 && rung != flush.rung) break;
      batch.push_back(m.queue.pop_front());
    }
  }
  m.vtime += static_cast<double>(batch.size()) / m.weight;
  return flush;
}

}  // namespace ccq::serve
