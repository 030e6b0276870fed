// Deterministic scheduler tests for the serving SLA layer
// (serve/sla.hpp + the InferenceServer paths that consume it).
//
// Three tiers, all exact — no sleeps, no probabilistic assertions:
//
//   1. SlaQueue / deadline-arithmetic unit tests: shed order (lowest
//      class first, FIFO within a class), dequeue order (highest class
//      first), the expiry sweep, the saturating relative→absolute
//      deadline conversion for hostile budgets, and each case of the
//      hold rule (`sla_next_hold_ns`).
//   2. A thread-free scheduler simulator over the *same* two steps the
//      server runs under its mutex (`sla_admit`, `sla_flush` over an
//      `SlaModel`) driven on a
//      virtual clock: fair-share convergence for 1:1 and 1:4 weights
//      under saturating two-model load, starvation freedom of a quiet
//      model, and the combined mixed-priority acceptance scenario — no
//      high-priority request shed while lower-priority work is queued,
//      expired requests never occupy a batch slot, served shares within
//      10% of the configured weights, and rung-homogeneous batches from
//      a queue of mixed rung overrides.  The flush step learns the
//      batching hold (`sla_next_hold_ns`) at every flush, and the
//      simulator pins it: a fresh model holds the full max_delay, a
//      closed pair population drives the hold down to the pair spacing,
//      Poisson overload fills batches at hold 0, hold 0 lasts when
//      traffic turns moderate, expired requests do not judge the hold,
//      and no request waits past max_delay.
//   3. InferenceServer integration under an injected virtual clock
//      (`ServeConfig::now_fn`, one worker): shed-lowest-first through
//      real submit futures, deadline expiry at dequeue (never at
//      admission), u64-max deadline and max_delay saturation, the first
//      hold and the `hold_us` gauge, plus the harness offered/admitted
//      accounting regression.
//
// Labelled `sla` and run under the TSan quick tier and both CI legs.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <future>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "ccq/common/telemetry.hpp"
#include "ccq/models/simple.hpp"
#include "ccq/serve/harness.hpp"
#include "serve_fixtures.hpp"

namespace ccq::serve {
namespace {

constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();

// ---- tier 1: queue + deadline primitives -----------------------------------

/// The minimal request shape the scheduler needs (the server's
/// detail::Request carries the same four fields plus payload).
struct SimRequest {
  Priority priority = Priority::kNormal;
  std::uint64_t enqueue_ns = 0;
  std::uint64_t deadline_ns = 0;
  int id = 0;
  std::int32_t rung = -1;  ///< operating-point override; −1 = none
};

SimRequest req(int id, Priority priority, std::uint64_t enqueue_ns = 0,
               std::uint64_t deadline_ns = 0) {
  return SimRequest{priority, enqueue_ns, deadline_ns, id};
}

TEST(SlaQueueTest, DequeuesHighestClassFirstFifoWithin) {
  SlaQueue<SimRequest> q;
  q.push(req(1, Priority::kLow));
  q.push(req(2, Priority::kNormal));
  q.push(req(3, Priority::kHigh));
  q.push(req(4, Priority::kNormal));
  q.push(req(5, Priority::kHigh));
  std::vector<int> order;
  while (!q.empty()) order.push_back(q.pop_front().id);
  EXPECT_EQ(order, (std::vector<int>{3, 5, 2, 4, 1}));
}

TEST(SlaQueueTest, ShedsLowestClassFirstFifoWithin) {
  SlaQueue<SimRequest> q;
  q.push(req(1, Priority::kNormal));
  q.push(req(2, Priority::kLow));
  q.push(req(3, Priority::kLow));
  q.push(req(4, Priority::kHigh));
  EXPECT_EQ(q.lowest(), Priority::kLow);
  EXPECT_EQ(q.shed_lowest().id, 2);  // oldest of the lowest class
  EXPECT_EQ(q.shed_lowest().id, 3);
  EXPECT_EQ(q.lowest(), Priority::kNormal);
  EXPECT_EQ(q.shed_lowest().id, 1);
  EXPECT_EQ(q.lowest(), Priority::kHigh);
  EXPECT_EQ(q.shed_lowest().id, 4);
  EXPECT_TRUE(q.empty());
}

TEST(SlaQueueTest, ExpireSweepsOnlyExpiredAcrossClasses) {
  SlaQueue<SimRequest> q;
  q.push(req(1, Priority::kLow, 0, 100));
  q.push(req(2, Priority::kLow, 0, 500));
  q.push(req(3, Priority::kHigh, 0, 150));
  q.push(req(4, Priority::kNormal, 0, 0));  // no deadline
  EXPECT_EQ(q.earliest_deadline_ns(), 100u);
  std::vector<int> dropped;
  q.expire(200, [&](SimRequest&& r) { dropped.push_back(r.id); });
  // Shed order: lowest class first, FIFO within.
  EXPECT_EQ(dropped, (std::vector<int>{1, 3}));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.earliest_deadline_ns(), 500u);
  dropped.clear();
  q.expire(kU64Max, [&](SimRequest&& r) { dropped.push_back(r.id); });
  EXPECT_EQ(dropped, (std::vector<int>{2}));  // id 4 has no deadline
  EXPECT_EQ(q.front().id, 4);
}

TEST(SlaQueueTest, OldestEnqueueSpansClasses) {
  SlaQueue<SimRequest> q;
  q.push(req(1, Priority::kHigh, 300));
  q.push(req(2, Priority::kLow, 100));
  q.push(req(3, Priority::kNormal, 200));
  EXPECT_EQ(q.oldest_enqueue_ns(), 100u);
  EXPECT_EQ(q.front().id, 1);  // dequeue order is by class, not age
}

TEST(DeadlineInstantTest, SaturatesHostileBudgets) {
  EXPECT_EQ(deadline_instant_ns(123, 0), 0u);  // 0 = no deadline
  EXPECT_EQ(deadline_instant_ns(0, 100), 100'000u);
  EXPECT_EQ(deadline_instant_ns(1'000, 100), 101'000u);
  // u64-max budget: the us→ns scale would wrap; must clamp, not wrap.
  EXPECT_EQ(deadline_instant_ns(0, kU64Max), kU64Max);
  EXPECT_EQ(deadline_instant_ns(kU64Max / 2, kU64Max), kU64Max);
  // The addition saturates too.
  EXPECT_EQ(deadline_instant_ns(kU64Max - 5, kU64Max / 1000), kU64Max);
  EXPECT_FALSE(deadline_expired(0, kU64Max));  // no deadline never expires
  EXPECT_TRUE(deadline_expired(100, 100));
  EXPECT_FALSE(deadline_expired(101, 100));
}

TEST(DeadlineInstantTest, MicrosToNanosSaturates) {
  EXPECT_EQ(us_to_ns_saturating(0), 0u);
  EXPECT_EQ(us_to_ns_saturating(200), 200'000u);
  EXPECT_EQ(us_to_ns_saturating(kU64Max / 1000), kU64Max / 1000 * 1000);
  // One past the last exact value would wrap to 384 ns.
  EXPECT_EQ(us_to_ns_saturating(kU64Max / 1000 + 1), kU64Max);
  EXPECT_EQ(us_to_ns_saturating(kU64Max), kU64Max);
}

/// A one-model state for the hold rule: `queued` requests admitted at
/// `oldest_ns` (each expiring at `deadline_ns`, 0 = never), the newest
/// admission at `newest_ns`, holding `hold_ns`.
SlaModel<SimRequest> hold_view(std::size_t queued, std::uint64_t oldest_ns,
                               std::uint64_t newest_ns, std::uint64_t hold_ns,
                               std::uint64_t deadline_ns = 0) {
  SlaModel<SimRequest> v{.max_batch = 8, .capacity = 64, .hold_ns = hold_ns};
  for (std::size_t i = 0; i < queued; ++i) {
    v.queue.push(req(0, Priority::kNormal, oldest_ns, deadline_ns));
  }
  v.newest_ns = newest_ns;
  return v;
}

TEST(HoldRuleTest, IdleTailHalvesTheHoldAndSubMicrosecondIsZero) {
  constexpr std::uint64_t kCap = 200'000;
  // Timed out with the newest arrival at the start: the whole hold idle.
  EXPECT_EQ(sla_next_hold_ns(hold_view(1, 0, 0, kCap), kCap), 100'000u);
  // A tail of exactly half the hold still halves it.
  EXPECT_EQ(sla_next_hold_ns(hold_view(2, 0, 100'000, kCap), kCap), 100'000u);
  // Halving below 1 us snaps to 0, and 0 stays 0.
  EXPECT_EQ(sla_next_hold_ns(hold_view(1, 0, 0, 2'000), 2'000), 1'000u);
  EXPECT_EQ(sla_next_hold_ns(hold_view(1, 0, 0, 1'999), 1'999), 0u);
  EXPECT_EQ(sla_next_hold_ns(hold_view(1, 0, 0, 0), 0), 0u);
}

TEST(HoldRuleTest, LateArrivalKeepsTheHold) {
  constexpr std::uint64_t kCap = 200'000;
  // Timed out, but an arrival joined in the hold's second half.
  EXPECT_EQ(sla_next_hold_ns(hold_view(3, 0, 100'001, kCap), kCap), kCap);
}

TEST(HoldRuleTest, FullBatchNeverGrowsTheHold) {
  constexpr std::uint64_t kCap = 200'000;
  // Filled before the hold ran out: nothing learned.
  EXPECT_EQ(sla_next_hold_ns(hold_view(8, 0, 10, kCap), 10), kCap);
  EXPECT_EQ(sla_next_hold_ns(hold_view(8, 0, 10, 25'000), 10), 25'000u);
  // Found full by a worker that was busy past the hold: judged like any
  // timeout, on its tail.
  EXPECT_EQ(sla_next_hold_ns(hold_view(8, 0, 490'000, 25'000), 500'000),
            25'000u);
  EXPECT_EQ(sla_next_hold_ns(hold_view(8, 0, 0, 25'000), 500'000), 12'500u);
  EXPECT_EQ(sla_next_hold_ns(hold_view(8, 0, 0, 0), 500'000), 0u);
}

TEST(HoldRuleTest, ForcedAndDeadlineFlushesKeepTheHold) {
  constexpr std::uint64_t kCap = 200'000;
  SlaModel<SimRequest> forced = hold_view(1, 0, 0, kCap);
  forced.force = true;
  EXPECT_EQ(sla_next_hold_ns(forced, 10 * kCap), kCap);
  // Flushable only because a queued deadline passed, not on age.
  const SlaModel<SimRequest> deadline = hold_view(1, 0, 0, kCap, 1'000);
  ASSERT_TRUE(sla_flushable(deadline, 1'000));
  EXPECT_EQ(sla_next_hold_ns(deadline, 1'000), kCap);
  // The expiry sweep emptied the queue: nothing to judge.
  EXPECT_EQ(sla_next_hold_ns(hold_view(0, 0, 0, kCap), 10 * kCap), kCap);
}

TEST(PriorityTest, NamesRoundTrip) {
  for (const Priority p :
       {Priority::kLow, Priority::kNormal, Priority::kHigh}) {
    EXPECT_EQ(priority_from_string(priority_name(p)), p);
  }
  EXPECT_THROW(priority_from_string("urgent"), Error);
}

// ---- tier 2: thread-free scheduler simulator -------------------------------

/// One simulated model: the server's scheduling state (`SlaModel`, as
/// `detail::LoadedModel` holds it), minus the network, plus a record of
/// what the scheduler did with it.
struct SimModel : SlaModel<SimRequest> {
  explicit SimModel(std::uint64_t max_delay_ns_in = 1'000'000)
      : SlaModel{.max_batch = 4, .capacity = 16, .hold_ns = max_delay_ns_in},
        max_delay_ns(max_delay_ns_in) {}

  std::uint64_t max_delay_ns;
  std::size_t served = 0;
  std::vector<SimRequest> shed;
  std::vector<SimRequest> expired;
  std::vector<std::uint64_t> latency_ns;  // virtual enqueue→serve
  std::vector<std::size_t> batches;       // size of every flush
  std::vector<std::uint64_t> holds;       // hold learned at every flush
  std::vector<std::int32_t> rungs;        // rung of every flush
  std::vector<int> served_ids;            // request ids in serve order
};

/// The scheduler under test: the server's admit and flush steps
/// (`sla_admit`, `sla_flush`) on a virtual clock, where a flush costs
/// virtual service time instead of running a network.
struct SimScheduler {
  std::vector<SimModel*> models;
  std::uint64_t now = 0;
  double vclock = 0.0;
  std::uint64_t batch_cost_ns = 1'000;  ///< virtual service time per flush
  std::uint64_t sample_cost_ns = 0;     ///< … plus this per batched sample
  std::int32_t rung = 0;  ///< the rung a model's controller would pick

  /// Admit at the current instant.  Returns false when rejected
  /// (QueueFullError's condition).
  bool admit(SimModel& m, SimRequest r) {
    r.enqueue_ns = now;
    SimRequest victim;
    const SlaAdmission admission = sla_admit(m, std::move(r), vclock, victim);
    if (admission == SlaAdmission::kShed) m.shed.push_back(victim);
    return admission != SlaAdmission::kRejected;
  }

  /// One worker turn: the flush step at the current instant, advancing
  /// the clock to the next event while nothing is due and that event is
  /// not past `until`.  Returns the flushed model, or nullptr when every
  /// queue is empty or nothing is due by `until`.
  SimModel* step(std::uint64_t until = kNoEventNs) {
    for (;;) {
      std::vector<SimRequest> expired, batch;
      const auto flush = sla_flush(models, now, vclock, expired, batch,
                                   [&](SimModel&) { return rung; });
      if (flush.model) {
        SimModel& target = *flush.model;
        target.expired.insert(target.expired.end(), expired.begin(),
                              expired.end());
        target.holds.push_back(target.hold_ns);
        for (const SimRequest& r : batch) {
          // The acceptance property: a request in a batch is never
          // expired at the instant the batch was composed.
          EXPECT_FALSE(deadline_expired(r.deadline_ns, now));
          target.latency_ns.push_back(now - r.enqueue_ns);
          target.served_ids.push_back(r.id);
        }
        target.served += batch.size();
        target.batches.push_back(batch.size());
        target.rungs.push_back(flush.rung);
        now += batch_cost_ns + batch.size() * sample_cost_ns;
        return flush.model;
      }
      // Nothing due: park until the earliest flush/deadline event —
      // the virtual analogue of the worker's wait_until.
      if (flush.next_event_ns == kNoEventNs || flush.next_event_ns > until) {
        return nullptr;
      }
      now = std::max(now, flush.next_event_ns);
    }
  }

  /// Run every flush that starts by `t` (the worker's turns between two
  /// arrivals), then bring the clock to `t` if it is not already past it.
  /// The clock stays past `t` while a flush that started earlier runs.
  void run_until(std::uint64_t t) {
    while (now <= t && step(t) != nullptr) {
    }
    now = std::max(now, t);
  }

  /// Admit an arrival at `t` ≤ now: one that came while the flush
  /// ending at `now` ran keeps its own admission instant.
  bool admit_at(SimModel& m, SimRequest r, std::uint64_t t) {
    const std::uint64_t busy_until = now;
    now = t;
    const bool admitted = admit(m, std::move(r));
    now = busy_until;
    return admitted;
  }
};

void expect_share_within(const SimModel& a, const SimModel& b,
                         double target_a_over_b, double tolerance) {
  ASSERT_GT(b.served, 0u);
  const double ratio =
      static_cast<double>(a.served) / static_cast<double>(b.served);
  EXPECT_NEAR(ratio, target_a_over_b, target_a_over_b * tolerance)
      << "served " << a.served << " vs " << b.served;
}

/// Keep a model saturated: top its queue back up to capacity.
void top_up(SimScheduler& sched, SimModel& m, Priority priority, int& next_id) {
  while (m.queue.size() < m.capacity) {
    ASSERT_TRUE(sched.admit(m, req(next_id++, priority)));
  }
}

TEST(FairShareTest, EqualWeightsConvergeToEqualShares) {
  SimModel a, b;
  SimScheduler sched;
  sched.models = {&a, &b};
  int id = 0;
  for (int round = 0; round < 400; ++round) {
    top_up(sched, a, Priority::kNormal, id);
    top_up(sched, b, Priority::kNormal, id);
    ASSERT_NE(sched.step(), nullptr);
  }
  expect_share_within(a, b, 1.0, 0.10);
}

TEST(FairShareTest, FourToOneWeightsConvergeToFourToOneShares) {
  SimModel a, b;
  a.weight = 4.0;
  b.weight = 1.0;
  SimScheduler sched;
  sched.models = {&a, &b};
  int id = 0;
  for (int round = 0; round < 500; ++round) {
    top_up(sched, a, Priority::kNormal, id);
    top_up(sched, b, Priority::kNormal, id);
    ASSERT_NE(sched.step(), nullptr);
  }
  expect_share_within(a, b, 4.0, 0.10);
}

TEST(FairShareTest, QuietModelNeverStarvesBehindHotOne) {
  SimModel hot;
  SimModel quiet(500);  // age-triggered flush for single requests
  SimScheduler sched;
  sched.models = {&hot, &quiet};
  int id = 0;
  std::size_t quiet_sent = 0;
  for (int round = 0; round < 600; ++round) {
    top_up(sched, hot, Priority::kNormal, id);
    if (round % 25 == 0) {
      // One quiet request every 25 hot batches.
      ASSERT_TRUE(sched.admit(quiet, req(id++, Priority::kNormal)));
      ++quiet_sent;
    }
    ASSERT_NE(sched.step(), nullptr);
  }
  // Drain whatever quiet request is still queued.
  while (!quiet.queue.empty()) ASSERT_NE(sched.step(), nullptr);
  ASSERT_GE(quiet_sent, 20u);
  ASSERT_EQ(quiet.served, quiet_sent);
  // Starvation freedom, exactly: a quiet request waits at most its own
  // batching delay plus one hot batch already due ahead of it.  With a
  // factor-2 allowance for the idle→busy vclock rejoin, every quiet
  // latency (hence its p99) stays bounded — it never waits out the hot
  // backlog.
  const std::uint64_t bound = quiet.max_delay_ns + 2 * sched.batch_cost_ns;
  for (const std::uint64_t latency : quiet.latency_ns) {
    EXPECT_LE(latency, bound);
  }
}

TEST(FairShareTest, MixedPriorityAcceptanceScenario) {
  // The ISSUE acceptance criteria, asserted exactly under saturating
  // two-model mixed-priority load:
  //   * no high-priority request is shed while a lower-priority request
  //     is queued for the same model,
  //   * expired requests never occupy a batch slot (asserted inside
  //     SimScheduler::step),
  //   * each model's served share converges within 10% of its weight.
  SimModel a, b;
  a.weight = 4.0;
  b.weight = 1.0;
  a.capacity = b.capacity = 8;
  SimScheduler sched;
  sched.models = {&a, &b};
  int id = 0;
  std::size_t rejections = 0;
  for (int round = 0; round < 500; ++round) {
    for (SimModel* m : sched.models) {
      // Offer a saturating burst of mixed priorities; high-priority
      // requests carry a deadline two batch-times out, so on the model
      // that drains slowly (weight 1) some must expire while queued.
      for (int k = 0; k < 6; ++k) {
        const Priority pri = static_cast<Priority>(id % 3);
        SimRequest r = req(id, pri);
        if (pri == Priority::kHigh) {
          r.deadline_ns = sched.now + 2 * sched.batch_cost_ns;
        }
        ++id;
        const bool was_full = m->queue.size() >= m->capacity;
        const Priority lowest_queued =
            m->queue.empty() ? Priority::kHigh : m->queue.lowest();
        const std::size_t shed_before = m->shed.size();
        const bool admitted = sched.admit(*m, std::move(r));
        if (!admitted) {
          // Rejection is legal only when nothing queued ranks below the
          // incomer — the "no high shed while lower queued" contract
          // seen from the door.
          ASSERT_TRUE(was_full);
          EXPECT_GE(lowest_queued, pri);
          ++rejections;
        } else if (m->shed.size() > shed_before) {
          // An eviction must take the lowest class present, and only
          // for a strictly higher-priority incomer.
          EXPECT_EQ(m->shed.back().priority, lowest_queued);
          EXPECT_LT(m->shed.back().priority, pri);
        }
      }
    }
    ASSERT_NE(sched.step(), nullptr);
  }
  // The load was saturating: admission control and the expiry sweep
  // both actually engaged.
  EXPECT_GT(rejections, 0u);
  EXPECT_FALSE(a.shed.empty());
  EXPECT_GT(a.expired.size() + b.expired.size(), 0u);
  // No shed victim anywhere outranks any class that was ever queued
  // behind it: in particular, a high-priority victim is impossible while
  // the offered mix keeps lower classes arriving.
  for (const SimModel* m : sched.models) {
    for (const SimRequest& victim : m->shed) {
      EXPECT_LT(victim.priority, Priority::kHigh);
    }
  }
  expect_share_within(a, b, 4.0, 0.10);
}

TEST(RungBoundaryTest, MixedOverridesFlushRungHomogeneousBatches) {
  // One queue holding requests with mixed rung overrides.  Each batch
  // takes its rung from its front request (the override, else the
  // controller's pick) and ends at the first request that asks for a
  // different rung, so every batch runs at one precision, highest class
  // first and FIFO within a class.
  SimModel m;
  m.max_batch = 8;
  SimScheduler sched;
  sched.models = {&m};
  sched.rung = 2;  // what the controller picks for unpinned batches
  struct Offer {
    Priority priority;
    std::int32_t rung;
  };
  const std::vector<Offer> offers = {
      {Priority::kHigh, 1},  {Priority::kNormal, -1}, {Priority::kHigh, -1},
      {Priority::kNormal, 0}, {Priority::kLow, -1},   {Priority::kHigh, 1},
      {Priority::kNormal, 0}, {Priority::kLow, 2},    {Priority::kNormal, -1},
      {Priority::kLow, 0},    {Priority::kLow, -1}};
  for (std::size_t i = 0; i < offers.size(); ++i) {
    SimRequest r = req(static_cast<int>(i) + 1, offers[i].priority);
    r.rung = offers[i].rung;
    ASSERT_TRUE(sched.admit(m, std::move(r)));
    // The first eight fill the queue to max_batch and drain in three
    // batches before the last three arrive.
    if (i + 1 == 8) {
      for (int flush = 0; flush < 3; ++flush) {
        ASSERT_EQ(sched.step(), &m);
      }
    }
  }
  while (!m.queue.empty()) ASSERT_EQ(sched.step(), &m);
  // High [1@1, 3, 6@1] then Normal [2, 4@0, 7@0] then Low [5, 8@2]:
  // 1 pins rung 1, and 3, 6, 2 join it until 4 asks for rung 0; 4 pins
  // rung 0 and takes 7 and 5 until 8 asks for rung 2.  Then 8 runs alone
  // at rung 2, the unpinned 9 at the controller's rung 2, and 10 pins
  // rung 0 for itself and 11.
  EXPECT_EQ(m.served_ids,
            (std::vector<int>{1, 3, 6, 2, 4, 7, 5, 8, 9, 10, 11}));
  EXPECT_EQ(m.batches, (std::vector<std::size_t>{4, 3, 1, 1, 2}));
  EXPECT_EQ(m.rungs, (std::vector<std::int32_t>{1, 0, 2, 2, 0}));
}

// ---- tier 2b: the learned batching hold ------------------------------------

/// Exponential inter-arrival gaps (a Poisson stream) by inverse CDF over
/// the fully specified mt19937_64, so every platform replays the same
/// arrivals.
struct PoissonArrivals {
  std::mt19937_64 rng;
  double mean_ns = 0.0;

  std::uint64_t next_gap() {
    const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;  // [0,1)
    return static_cast<std::uint64_t>(-mean_ns * std::log1p(-u));
  }
};

/// A closed pair population: two requests `spacing_ns` apart, then
/// silence until both are served, repeated until `m` has flushed
/// `flushes` times.
void run_closed_pairs(SimScheduler& sched, SimModel& m,
                      std::uint64_t spacing_ns, std::size_t flushes,
                      int& next_id) {
  while (m.batches.size() < flushes) {
    ASSERT_TRUE(sched.admit(m, req(next_id++, Priority::kNormal)));
    sched.run_until(sched.now + spacing_ns);
    ASSERT_TRUE(sched.admit(m, req(next_id++, Priority::kNormal)));
    while (!m.queue.empty()) ASSERT_NE(sched.step(), nullptr);
  }
}

SimModel hold_model() {
  SimModel m(200'000);
  m.max_batch = 8;
  m.capacity = 64;
  return m;
}

TEST(LearnedHoldTest, FreshModelHoldsTheFullMaxDelayFirst) {
  SimModel m = hold_model();
  SimScheduler sched;
  sched.models = {&m};
  ASSERT_TRUE(sched.admit(m, req(0, Priority::kNormal)));
  ASSERT_EQ(sched.step(), &m);
  EXPECT_EQ(m.latency_ns, std::vector<std::uint64_t>{200'000});
  // The whole hold passed with no arrival: the next one is half as long.
  EXPECT_EQ(m.holds, std::vector<std::uint64_t>{100'000});
}

TEST(LearnedHoldTest, ClosedPairDrivesTheHoldToThePairSpacing) {
  // Two closed-loop clients whose requests land 3 us apart: no third
  // request ever comes, so holding beyond the pair only adds latency.
  SimModel m = hold_model();
  SimScheduler sched;
  sched.models = {&m};
  sched.batch_cost_ns = 30'000;
  constexpr std::uint64_t kSpacing = 3'000;
  int id = 0;
  run_closed_pairs(sched, m, kSpacing, 16, id);
  ASSERT_GE(m.holds.size(), 16u);
  EXPECT_LE(m.holds[15], 2 * kSpacing);
  // The learned hold still spans the spacing, so the pair still batches.
  EXPECT_EQ(m.batches.back(), 2u);
}

/// A batch cost shaped like the fused 2-bit engine in BENCH_engine.json
/// (27.5 us for one sample, 172.7 us for eight): batching amortises
/// only the fixed part, so a worker serves at most 46.4k samples/s.
void engine_cost(SimScheduler& sched) {
  sched.batch_cost_ns = 6'800;
  sched.sample_cost_ns = 20'700;
}

/// Lone requests, each served before the next arrives, until the hold
/// has halved down to 0 (eight halvings from 200 us).
void run_lone_requests_to_zero_hold(SimScheduler& sched, SimModel& m,
                                    int& next_id) {
  for (int k = 0; k < 16 && m.hold_ns != 0; ++k) {
    ASSERT_TRUE(sched.admit(m, req(next_id++, Priority::kNormal)));
    ASSERT_EQ(sched.step(), &m);
  }
  ASSERT_EQ(m.hold_ns, 0u);
}

/// `n` Poisson arrivals at `mean_gap_ns` from the scheduler's clock on,
/// each admitted at its own instant.  Returns how many the full queue
/// rejected.
std::size_t offer_poisson(SimScheduler& sched, SimModel& m,
                          std::uint64_t seed, double mean_gap_ns, int n,
                          int& next_id) {
  PoissonArrivals arrivals{std::mt19937_64(seed), mean_gap_ns};
  std::uint64_t t = sched.now;
  std::size_t rejected = 0;
  for (int k = 0; k < n; ++k) {
    t += arrivals.next_gap();
    sched.run_until(t);
    rejected +=
        sched.admit_at(m, req(next_id++, Priority::kNormal), t) ? 0 : 1;
  }
  return rejected;
}

TEST(LearnedHoldTest, PoissonOverloadFillsBatchesAtHoldZero) {
  // Lone requests teach hold 0; then arrivals at a 15 us mean (66.7k/s)
  // exceed what the worker serves even in full batches.  With no hold
  // at all the backlog fills every batch, and full batches pay on this
  // cost: the worker serves at its full-batch rate, well above the
  // 36.4k/s it could carry one sample at a time.
  SimModel m = hold_model();
  SimScheduler sched;
  sched.models = {&m};
  engine_cost(sched);
  int id = 0;
  run_lone_requests_to_zero_hold(sched, m, id);
  const std::size_t served_before = m.served;
  const std::uint64_t start = sched.now;
  EXPECT_GT(offer_poisson(sched, m, 7, 15'000.0, 40'000, id), 0u);
  EXPECT_EQ(m.hold_ns, 0u);
  ASSERT_GE(m.batches.size(), 2'000u);
  std::size_t full = 0;
  for (std::size_t i = m.batches.size() - 1'000; i < m.batches.size(); ++i) {
    full += m.batches[i] == m.max_batch ? 1 : 0;
  }
  EXPECT_EQ(full, 1'000u);
  const double served_per_s = static_cast<double>(m.served - served_before) /
                              (static_cast<double>(sched.now - start) * 1e-9);
  const double full_batch_per_s =
      static_cast<double>(m.max_batch) /
      (static_cast<double>(sched.batch_cost_ns +
                           m.max_batch * sched.sample_cost_ns) *
       1e-9);
  EXPECT_GT(served_per_s, 0.98 * full_batch_per_s);
  EXPECT_LE(served_per_s, full_batch_per_s);
}

TEST(LearnedHoldTest, HoldZeroLastsWhenTrafficTurnsModerate) {
  // Sparse lone requests teach hold 0.  Traffic then turns moderate:
  // Poisson arrivals at a 40 us mean, inside the old hold but below
  // what the worker serves even one at a time.  No hold is left for an
  // arrival to join, so the rule has nothing to learn from and the hold
  // stays 0 (a reload restarts it at max_delay).  Requests wait only
  // for a busy worker, and that backlog is the only batching left.
  SimModel m = hold_model();
  SimScheduler sched;
  sched.models = {&m};
  engine_cost(sched);
  int id = 0;
  run_lone_requests_to_zero_hold(sched, m, id);
  const std::size_t first = m.batches.size();
  const std::size_t first_latency = m.latency_ns.size();
  EXPECT_EQ(offer_poisson(sched, m, 13, 40'000.0, 5'000, id), 0u);
  while (!m.queue.empty()) ASSERT_NE(sched.step(), nullptr);
  for (std::size_t i = first; i < m.holds.size(); ++i) {
    EXPECT_EQ(m.holds[i], 0u);
  }
  // Nobody waits longer than one full batch runs.
  const std::uint64_t full_batch_ns =
      sched.batch_cost_ns + m.max_batch * sched.sample_cost_ns;
  for (std::size_t i = first_latency; i < m.latency_ns.size(); ++i) {
    EXPECT_LE(m.latency_ns[i], full_batch_ns);
  }
  // The backlog still batches some, but far from the full batches a
  // 200 us hold would gather at this rate (five arrivals per hold).
  const double mean_batch =
      static_cast<double>(m.served - first) /
      static_cast<double>(m.batches.size() - first);
  EXPECT_GT(mean_batch, 1.0);
  EXPECT_LT(mean_batch, 2.0);
}

TEST(LearnedHoldTest, ExpiredRequestsDoNotJudgeTheHold) {
  // Seven requests with a 50 us budget at t = 0 and one without a
  // budget at 150 us; a worker busy elsewhere comes back at 300 us.
  // Before the sweep the queue is full and its oldest request aged past
  // the 200 us hold with a 150 us tail.  The sweep drops the seven
  // first, and the survivor has waited only 150 us: the hold stays.
  SimModel m = hold_model();
  SimScheduler sched;
  sched.models = {&m};
  int id = 0;
  for (; id < 7; ++id) {
    ASSERT_TRUE(sched.admit(m, req(id, Priority::kNormal, 0, 50'000)));
  }
  sched.now = 150'000;
  ASSERT_TRUE(sched.admit(m, req(id++, Priority::kNormal)));
  sched.now = 300'000;
  ASSERT_EQ(sched.step(), &m);
  EXPECT_EQ(m.expired.size(), 7u);
  EXPECT_EQ(m.batches, std::vector<std::size_t>{1});
  EXPECT_EQ(m.holds, std::vector<std::uint64_t>{200'000});
}

TEST(LearnedHoldTest, NoRequestWaitsLongerThanMaxDelay) {
  SimModel m = hold_model();
  SimScheduler sched;
  sched.models = {&m};
  sched.batch_cost_ns = 0;  // an always-free worker: every wait is a hold
  // Spells of sparse singles, of bursts that fill a batch at once, and
  // of rates and burst sizes in between.
  struct Spell {
    double mean_gap_ns;
    int burst;
  };
  constexpr Spell kSpells[] = {
      {500'000.0, 1}, {20'000.0, 8}, {40'000.0, 1}, {150'000.0, 3}};
  PoissonArrivals arrivals{std::mt19937_64(11), 0.0};
  std::uint64_t t = 0;
  int id = 0;
  for (int spell = 0; spell < 40; ++spell) {
    arrivals.mean_ns = kSpells[spell % 4].mean_gap_ns;
    for (int k = 0; k < 20; ++k) {
      t += arrivals.next_gap();
      sched.run_until(t);
      for (int b = 0; b < kSpells[spell % 4].burst; ++b) {
        ASSERT_TRUE(sched.admit(m, req(id++, Priority::kNormal)));
      }
    }
  }
  while (!m.queue.empty()) ASSERT_NE(sched.step(), nullptr);
  ASSERT_EQ(m.latency_ns.size(), static_cast<std::size_t>(id));
  for (const std::uint64_t latency : m.latency_ns) {
    EXPECT_LE(latency, m.max_delay_ns);
  }
  // The hold only ever shrank from the cap, down to 0.
  ASSERT_FALSE(m.holds.empty());
  EXPECT_LE(m.holds.front(), m.max_delay_ns);
  for (std::size_t i = 1; i < m.holds.size(); ++i) {
    EXPECT_LE(m.holds[i], m.holds[i - 1]);
  }
  EXPECT_EQ(m.holds.back(), 0u);
}

// ---- tier 3: server integration under an injected clock --------------------

/// A server on a virtual clock: one worker, time advances only when the
/// test says so, flushes triggered by filling max_batch or by shutdown.
struct VirtualClockServer {
  std::atomic<std::uint64_t> now{1'000};
  InferenceServer server;

  explicit VirtualClockServer(std::size_t workers = 1)
      : server(make_config(workers)) {}

  ServeConfig make_config(std::size_t workers) {
    ServeConfig config;
    config.workers = workers;
    config.now_fn = [this] { return now.load(std::memory_order_relaxed); };
    return config;
  }
};

template <typename E>
bool fails_with(std::future<void>& f) {
  if (f.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
    return false;
  }
  try {
    f.get();
  } catch (const E&) {
    return true;
  } catch (...) {
  }
  return false;
}

TEST(ServeSlaTest, FullQueueShedsLowestFirstThroughFutures) {
  VirtualClockServer vs;
  ModelConfig mc;
  mc.queue_capacity = 2;
  mc.max_batch = 4;           // > capacity: nothing flushes on fill
  mc.max_delay_us = kU64Max;  // nothing flushes on age either
  const ModelHandle handle = vs.server.load("m", make_network(), mc);

  std::vector<Tensor> in;
  for (std::size_t i = 0; i < 6; ++i) {
    in.push_back(make_inputs(1).reshaped({3, 8, 8}));
  }
  std::vector<Tensor> out(6);

  SubmitOptions low;
  low.priority = Priority::kLow;
  SubmitOptions high;
  high.priority = Priority::kHigh;

  auto low_a = vs.server.submit(handle, in[0], out[0], low);
  auto low_b = vs.server.submit(handle, in[1], out[1], low);
  // Queue full of lows: a high incomer evicts the OLDEST low.
  auto high_c = vs.server.submit(handle, in[2], out[2], high);
  EXPECT_TRUE(fails_with<RequestShedError>(low_a));
  EXPECT_EQ(low_b.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout);
  // …and the next high evicts the remaining low — FIFO within the class.
  auto high_d = vs.server.submit(handle, in[3], out[3], high);
  EXPECT_TRUE(fails_with<RequestShedError>(low_b));
  // Queue now holds two highs: a normal incomer cannot displace either…
  EXPECT_THROW(vs.server.submit(handle, in[4], out[4], SubmitOptions{}),
               QueueFullError);
  // …and an equal-priority high is rejected too (no same-class churn).
  EXPECT_THROW(vs.server.submit(handle, in[5], out[5], high), QueueFullError);

  // Drain: shutdown forces the flush; both admitted highs are served.
  vs.server.shutdown();
  EXPECT_NO_THROW(high_c.get());
  EXPECT_NO_THROW(high_d.get());
  EXPECT_EQ(out[2].dim(0), 5u);
  EXPECT_EQ(out[3].dim(0), 5u);
}

TEST(ServeSlaTest, DeadlineExpiresAtDequeueNeverAtAdmission) {
  VirtualClockServer vs;
  ModelConfig mc;
  mc.queue_capacity = 8;
  mc.max_batch = 2;           // the second submit triggers the flush
  mc.max_delay_us = kU64Max;  // age never triggers it
  const ModelHandle handle = vs.server.load("m", make_network(), mc);

  const Tensor sample_a = make_inputs(1).reshaped({3, 8, 8});
  const Tensor sample_b = make_inputs(1).reshaped({3, 8, 8});
  Tensor out_a, out_b;

  SubmitOptions tight;
  tight.deadline_us = 100;
  // Admission accepts the budget unconditionally — a relative deadline
  // cannot be expired at admission.
  std::future<void> reply_a;
  ASSERT_NO_THROW(reply_a = vs.server.submit(handle, sample_a, out_a, tight));

  // The budget expires while queued…
  vs.now += 1'000'000;  // 1 ms ≫ 100 us
  // …and the next flush drops it at dequeue time: it never occupies a
  // batch slot, and its future fails typed.  That flush is either the
  // one the second submit triggers, or — when the worker first looks at
  // the queue after the clock jump — the expiry itself, which leaves the
  // second request waiting for a batch partner that never comes
  // (max_delay_us is unbounded).  shutdown() flushes what remains, so
  // both interleavings end here; drain() would wait forever on the
  // second.
  std::future<void> reply_b =
      vs.server.submit(handle, sample_b, out_b, SubmitOptions{});
  vs.server.shutdown();
  try {
    reply_a.get();
    FAIL() << "expired request was served";
  } catch (const DeadlineExceededError& e) {
    EXPECT_NE(std::string(e.what()).find("missed its 100us deadline"),
              std::string::npos);
  }
  EXPECT_NO_THROW(reply_b.get());
  EXPECT_EQ(out_b.dim(0), 5u);

  // Same-instant dequeue is NOT a miss: the deadline bounds queueing
  // time that actually elapsed, and none has.
  VirtualClockServer fresh;
  const ModelHandle fresh_handle = fresh.server.load("m", make_network(), mc);
  Tensor out_c, out_d;
  std::future<void> reply_c =
      fresh.server.submit(fresh_handle, sample_a, out_c, tight);
  std::future<void> reply_d =
      fresh.server.submit(fresh_handle, sample_b, out_d, SubmitOptions{});
  fresh.server.drain();
  EXPECT_NO_THROW(reply_c.get());
  EXPECT_NO_THROW(reply_d.get());
  fresh.server.shutdown();
}

TEST(ServeSlaTest, MaxDeadlineSaturatesInsteadOfWrapping) {
  VirtualClockServer vs;
  ModelConfig mc;
  mc.queue_capacity = 8;
  mc.max_batch = 2;
  mc.max_delay_us = kU64Max;
  const ModelHandle handle = vs.server.load("m", make_network(), mc);

  const Tensor sample_a = make_inputs(1).reshaped({3, 8, 8});
  const Tensor sample_b = make_inputs(1).reshaped({3, 8, 8});
  Tensor out_a, out_b;
  SubmitOptions forever;
  forever.deadline_us = kU64Max;  // would wrap into the past if scaled
  std::future<void> reply_a =
      vs.server.submit(handle, sample_a, out_a, forever);
  vs.now += 1'000'000'000'000ull;  // ~17 virtual minutes queued
  std::future<void> reply_b =
      vs.server.submit(handle, sample_b, out_b, SubmitOptions{});
  vs.server.drain();
  EXPECT_NO_THROW(reply_a.get());
  EXPECT_NO_THROW(reply_b.get());
  vs.server.shutdown();
}

TEST(ServeSlaTest, MaxDelaySaturatesInsteadOfWrapping) {
  VirtualClockServer vs;
  ModelConfig mc;
  mc.max_batch = 8;
  // Scaled by 1000 without saturating, this wraps to a 384 ns hold.
  mc.max_delay_us = 18'446'744'073'709'552ull;
  const ModelHandle handle = vs.server.load("m", make_network(), mc);
  ModelConfig poke_mc;
  poke_mc.max_batch = 1;  // flushes on submit: a worker scan on demand
  const ModelHandle poke = vs.server.load("poke", make_network(), poke_mc);

  const Tensor sample = make_inputs(1).reshaped({3, 8, 8});
  Tensor out, poke_out;
  std::future<void> reply = vs.server.submit(handle, sample, out);
  vs.now += 1'000'000;  // 1 ms ≫ 384 ns
  // The worker scans every model when it picks the poke.  A flushable
  // `m` (older, at equal virtual time) would be picked first, so its
  // reply would be ready by the time the poke's is.
  vs.server.submit(poke, sample, poke_out).get();
  EXPECT_EQ(reply.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout);
  vs.server.shutdown();  // the forced flush still serves it
  EXPECT_NO_THROW(reply.get());
  EXPECT_EQ(out.dim(0), 5u);
}

TEST(ServeSlaTest, FreshModelHoldsMaxDelayThenExportsTheLearnedHold) {
  const bool metrics_were = telemetry::metrics_enabled();
  telemetry::set_metrics_enabled(true);
  VirtualClockServer vs;
  ModelConfig mc;
  mc.max_batch = 8;
  mc.max_delay_us = 200;
  const ModelHandle handle = vs.server.load("fresh-hold", make_network(), mc);
  ModelConfig poke_mc;
  poke_mc.max_batch = 1;
  const ModelHandle poke = vs.server.load("poke", make_network(), poke_mc);

  const Tensor sample = make_inputs(1).reshaped({3, 8, 8});
  Tensor out, poke_out;
  std::future<void> reply = vs.server.submit(handle, sample, out);
  // 1 ns short of max_delay_us: not yet flushable.  Each poke makes the
  // worker scan; the held model has the lower virtual time, so were it
  // flushable it would be served before the poke.
  vs.now += 199'999;
  vs.server.submit(poke, sample, poke_out).get();
  EXPECT_EQ(reply.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout);
  vs.now += 1;
  vs.server.submit(poke, sample, poke_out).get();
  EXPECT_EQ(reply.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  // The whole hold passed with no arrival: the gauge shows it halved.
  const int hold = telemetry::find_named_metric(
      telemetry::NamedKind::kGauge, "serve.fresh-hold.hold_us");
  ASSERT_GE(hold, 0);
  EXPECT_EQ(telemetry::named_gauge_value(hold), 100.0);
  vs.server.shutdown();
  telemetry::set_metrics_enabled(metrics_were);
}

TEST(ServeSlaTest, WeightMustBePositiveAndFinite) {
  InferenceServer server;
  for (const double weight : {0.0, -1.0, std::nan("")}) {
    ModelConfig mc;
    mc.weight = weight;
    EXPECT_THROW(server.load("bad", make_network(), mc), Error);
  }
  EXPECT_THROW(server.resolve("bad"), ModelNotFoundError);
}

TEST(ServeSlaTest, DeadlineMissRateTriggersControllerDegrade) {
  OperatingPointPolicy policy;
  policy.degrade_depth = 1000;  // depth trigger inert
  policy.restore_depth = 0;
  policy.degrade_miss_rate = 0.25;
  OperatingPointController point(policy, 3, -1, -1, -1);
  // Window 1: 10 admitted, 1 miss (10% < 25%) — stays at rung 0.
  EXPECT_EQ(point.decide({0, 1'000, 10, 1}), 0u);
  // Window 2: 10 more admitted, 4 more misses (40% > 25%) — degrades.
  EXPECT_EQ(point.decide({0, 2'000, 20, 5}), 1u);
  // Window 3: clean — restores (depth 0 ≤ restore_depth).
  EXPECT_EQ(point.decide({0, 3'000, 30, 5}), 0u);
  // The two-arg overload keeps the miss trigger inert.
  EXPECT_EQ(point.decide(0, 4'000), 0u);
}

/// Just past the last microsecond count that scales to nanoseconds
/// without wrapping: a wrapping multiply turns it into 384 ns.
constexpr std::uint64_t kWrapsTo384Ns = 18'446'744'073'709'552ull;

TEST(ServeSlaTest, ControllerP99ThresholdSaturatesInsteadOfWrapping) {
  const bool metrics_were = telemetry::metrics_enabled();
  telemetry::set_metrics_enabled(true);
  const int timer = telemetry::named_metric(telemetry::NamedKind::kTimer,
                                            "test.sla.saturated_p99");
  OperatingPointPolicy policy;
  policy.degrade_depth = 1000;  // depth trigger inert
  policy.restore_depth = 0;
  policy.degrade_p99_us = kWrapsTo384Ns;
  OperatingPointController point(policy, 3, timer, -1, -1);
  // A p99 of 1 ms is far below the threshold, and far above 384 ns.
  for (int i = 0; i < 10; ++i) {
    telemetry::record_named_duration(timer, 1'000'000);
  }
  EXPECT_EQ(point.decide(0, 1'000), 0u);
  telemetry::set_metrics_enabled(metrics_were);
}

TEST(ServeSlaTest, ControllerDwellSaturatesInsteadOfWrapping) {
  OperatingPointPolicy policy;
  policy.degrade_depth = 4;
  policy.restore_depth = 0;
  policy.min_dwell_us = kWrapsTo384Ns;
  OperatingPointController point(policy, 3, -1, -1, -1);
  EXPECT_EQ(point.decide(10, 1'000), 1u);  // the first switch is free
  // 1 ms later the dwell still holds the rung, though 1 ms ≫ 384 ns.
  EXPECT_EQ(point.decide(10, 1'001'000), 1u);
}

// ---- harness accounting regression (satellite fix) -------------------------

TEST(HarnessAccountingTest, OfferedCountsEveryAttemptClosedLoop) {
  InferenceServer server(ServeConfig{.workers = 2, .now_fn = {}});
  ModelConfig mc;
  mc.max_batch = 4;
  mc.max_delay_us = 50;
  mc.queue_capacity = 2;  // tiny: retries are likely under 4 producers
  server.load("m", make_network(), mc);
  ServeHarness harness(server, "m");
  const Tensor x = make_inputs(32);
  const HarnessReport report = harness.run(
      x, {.producers = 4, .ramp = {}, .on_swap = {}, .priorities = {}});
  // Every sample served, and the books balance: each retry was a fresh
  // offer, so offered = admitted + rejected exactly (the pre-fix code
  // lost the retry burst).
  EXPECT_EQ(report.requests, 32u);
  EXPECT_EQ(report.offered, report.admitted + report.rejected);
  EXPECT_GE(report.admitted, 32u);
  EXPECT_EQ(report.deadline_missed, 0u);
  server.shutdown();
}

TEST(HarnessAccountingTest, OpenLoopOffersEachSampleOnce) {
  InferenceServer server(ServeConfig{.workers = 2, .now_fn = {}});
  ModelConfig mc;
  mc.max_batch = 8;
  mc.max_delay_us = 100;
  mc.queue_capacity = 4;
  server.load("m", make_network(), mc);
  ServeHarness harness(server, "m");
  const Tensor x = make_inputs(64);
  HarnessOptions options;
  options.producers = 2;
  options.offered_rps = 200'000.0;  // far beyond a 4-deep queue
  const HarnessReport report = harness.run(x, options);
  // The open loop never retries: one offer per sample, shed or served.
  EXPECT_EQ(report.offered, 64u);
  EXPECT_EQ(report.offered, report.admitted + report.rejected);
  EXPECT_EQ(report.requests + report.rejected + report.shed +
                report.deadline_missed,
            64u);
  server.shutdown();
}

TEST(HarnessAccountingTest, MixedPrioritiesReachTheServerPerSample) {
  VirtualClockServer vs;
  ModelConfig mc;
  mc.queue_capacity = 2;
  mc.max_batch = 4;
  mc.max_delay_us = kU64Max;
  const ModelHandle handle = vs.server.load("m", make_network(), mc);
  // Two lows queued through the submit path, then the harness offers a
  // single high-priority sample closed-loop: it must displace a low
  // (captured by the typed shed future), proving the per-sample
  // priority option reaches admission.
  const Tensor lows = make_inputs(2);
  Tensor in_a = make_inputs(1).reshaped({3, 8, 8});
  Tensor in_b = make_inputs(1).reshaped({3, 8, 8});
  Tensor out_a, out_b;
  SubmitOptions low;
  low.priority = Priority::kLow;
  auto low_a = vs.server.submit(handle, in_a, out_a, low);
  auto low_b = vs.server.submit(handle, in_b, out_b, low);

  ServeHarness harness(vs.server, "m");
  HarnessOptions options;
  options.priorities = {Priority::kHigh};
  HarnessReport report;
  std::thread driver(
      [&] { report = harness.run(make_inputs(1), options); });
  // The eviction happens synchronously inside the harness's submit.
  while (!fails_with<RequestShedError>(low_a)) {
    std::this_thread::yield();
  }
  vs.server.shutdown();  // force the flush; the high and low_b serve
  driver.join();
  EXPECT_EQ(report.requests, 1u);
  EXPECT_EQ(report.offered, report.admitted + report.rejected);
  EXPECT_NO_THROW(low_b.get());
}

}  // namespace
}  // namespace ccq::serve
