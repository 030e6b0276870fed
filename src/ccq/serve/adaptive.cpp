#include "ccq/serve/adaptive.hpp"

#include <algorithm>

#include "ccq/common/error.hpp"
#include "ccq/serve/sla.hpp"

namespace ccq::serve {

OperatingPointController::OperatingPointController(OperatingPointPolicy policy,
                                                   std::size_t rung_count,
                                                   int latency_timer,
                                                   int rung_gauge,
                                                   int switch_counter)
    : policy_(policy),
      rung_count_(rung_count),
      latency_timer_(latency_timer),
      rung_gauge_(rung_gauge),
      switch_counter_(switch_counter) {
  CCQ_CHECK(rung_count_ >= 1, "a model serves at least one rung");
  if (rung_count_ > 1 && policy_.fixed_rung < 0) {
    CCQ_CHECK(policy_.restore_depth < policy_.degrade_depth,
              "operating-point policy needs restore_depth (" +
                  std::to_string(policy_.restore_depth) +
                  ") < degrade_depth (" +
                  std::to_string(policy_.degrade_depth) +
                  ") — the gap is the hysteresis band");
  }
  CCQ_CHECK(policy_.degrade_miss_rate >= 0.0 && policy_.degrade_miss_rate <= 1.0,
            "degrade_miss_rate must be within [0, 1], got " +
                std::to_string(policy_.degrade_miss_rate));
  if (policy_.fixed_rung >= 0) {
    CCQ_CHECK(static_cast<std::size_t>(policy_.fixed_rung) < rung_count_,
              "fixed_rung " + std::to_string(policy_.fixed_rung) +
                  " out of range: model has " + std::to_string(rung_count_) +
                  " rung(s)");
    current_ = static_cast<std::size_t>(policy_.fixed_rung);
  }
  telemetry::set_named_gauge(rung_gauge_, static_cast<double>(current_));
}

bool OperatingPointController::latency_degrade() {
  if (policy_.degrade_p99_us == 0 || latency_timer_ < 0) return false;
  const telemetry::TimerStats stats =
      telemetry::named_timer_stats(latency_timer_);
  // p99 over the window since the last decision: subtract the previous
  // snapshot bucket-wise so one historical spike cannot hold the model
  // degraded forever.
  telemetry::TimerStats window;
  window.count = stats.count - last_stats_.count;
  for (int b = 0; b < telemetry::kHistogramBuckets; ++b) {
    window.buckets[b] = stats.buckets[b] - last_stats_.buckets[b];
  }
  last_stats_ = stats;
  if (window.count == 0) return false;
  const std::uint64_t p99_ns = telemetry::approx_quantile(window, 0.99);
  return p99_ns > us_to_ns_saturating(policy_.degrade_p99_us);
}

bool OperatingPointController::deadline_degrade(const LoadSignals& signals) {
  if (policy_.degrade_miss_rate <= 0.0) return false;
  if (signals.admitted < last_admitted_ ||
      signals.deadline_misses < last_misses_) {
    // Counters went backwards: the caller mixed signal sources (the
    // two-argument `decide` carries no counters) or reset them.  An
    // unsigned window would wrap to ~2^64 and degrade forever —
    // resnapshot instead and report a quiet window.
    last_admitted_ = signals.admitted;
    last_misses_ = signals.deadline_misses;
    return false;
  }
  // Window against the previous decision, like the latency trigger.
  const std::uint64_t admitted = signals.admitted - last_admitted_;
  const std::uint64_t misses = signals.deadline_misses - last_misses_;
  last_admitted_ = signals.admitted;
  last_misses_ = signals.deadline_misses;
  if (admitted == 0) return misses > 0;
  return static_cast<double>(misses) >
         policy_.degrade_miss_rate * static_cast<double>(admitted);
}

std::size_t OperatingPointController::decide(const LoadSignals& signals) {
  if (rung_count_ == 1 || policy_.fixed_rung >= 0) return current_;

  // Evaluate the windowed triggers unconditionally so their snapshots
  // advance every decision, not only when depth is quiet.
  const bool hot_latency = latency_degrade();
  const bool hot_deadlines = deadline_degrade(signals);

  if (switched_once_ && signals.now_ns - last_switch_ns_ <
                            us_to_ns_saturating(policy_.min_dwell_us)) {
    return current_;
  }

  std::size_t next = current_;
  if (signals.queue_depth >= policy_.degrade_depth || hot_latency ||
      hot_deadlines) {
    next = std::min(current_ + 1, rung_count_ - 1);
  } else if (signals.queue_depth <= policy_.restore_depth && current_ > 0) {
    next = current_ - 1;
  }
  if (next != current_) {
    current_ = next;
    last_switch_ns_ = signals.now_ns;
    switched_once_ = true;
    telemetry::add_named(switch_counter_);
    telemetry::set_named_gauge(rung_gauge_, static_cast<double>(current_));
  }
  return current_;
}

}  // namespace ccq::serve
