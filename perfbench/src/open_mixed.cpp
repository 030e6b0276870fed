// open-mixed: an in-process open loop over two models sharing the worker
// pool at fair-share weight 4:1.
//
//   * heavy — a 3-rung multi-point artifact with its operating-point
//     controller on;
//   * light — a single-point artifact, hot-swapped once per rate step to
//     the other of two artifact versions, so registry writes happen beside
//     the pacing thread's reads.
//
// One pacing thread sends Poisson arrivals on a seeded schedule (80%
// heavy, 20% light, service classes cycling low/normal/high, low carrying
// a queueing deadline); one collector thread polls the reply futures and
// times every request from its scheduled send time; a third thread does
// the hot-swap.  Three fixed rates (low, mid, high) sit below the
// saturation knee; above mid a geometric ladder of rates, refined by two
// bisections, finds slo_rps — the highest rate whose p99 meets kSloUs with
// no growing backlog.  Batches are largest at `high`, so both scheduler
// changes and batch-amortized kernels show here; no socket is involved.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <future>
#include <memory>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "ccq/common/alloc.hpp"
#include "ccq/common/rng.hpp"
#include "ccq/common/telemetry.hpp"
#include "ccq/serve/artifact.hpp"
#include "ccq/serve/server.hpp"

namespace perfbench {
namespace {

namespace serve = ccq::serve;

constexpr std::size_t kPool = 64;
/// Set-ups before the measured steps, then kSetupsPerSlice more before
/// each slice of a --trace 0 run: spread over the run, the set-up median
/// samples the host's state over the run like every other metric instead
/// of at one instant.
constexpr std::size_t kSetupReps = 5;
constexpr std::size_t kSetupsPerSlice = 20;
/// Fixed offered rates (requests/s).  On the 4-vCPU host this benchmark
/// was built on the knee moved between ~6k and ~28k rps as the host's
/// load on the shared cores came and went; `high` sits below all but the
/// worst of it.
constexpr double kRates[3] = {1000.0, 3000.0, 6000.0};
constexpr const char* kRateNames[3] = {"low", "mid", "high"};
/// Share of --seconds each fixed step runs, and the number of slices it
/// is cut into: the steps take turns slice by slice, so a spell of host
/// contention lands on all three alike instead of on one whole step.
constexpr double kStepShare[3] = {0.22, 0.15, 0.13};
constexpr std::size_t kSlices = 5;
/// The workload's latency limit on p99 (from the scheduled send time).
constexpr double kSloUs = 5'000.0;
constexpr double kLadderRatio = 1.35;
constexpr std::size_t kLadderSteps = 8;
constexpr std::size_t kRefinements = 2;
constexpr double kHeavyShare = 0.8;
/// Low-class queueing budget: longer than any run may last, so every low
/// request carries a deadline through admission and the dequeue-time
/// sweep, yet a spell of host contention cannot expire one and count a
/// failed operation that the program did not cause.
constexpr std::uint64_t kLowDeadlineUs = 600'000'000;
/// In-flight requests the pacer allows; it waits for the collector beyond.
constexpr std::size_t kSlots = 8192;
/// Requests per model in the traced run's backlog burst (sla.share.heavy).
constexpr std::size_t kBurst = 512;

enum Outcome : std::uint8_t {
  kOk,
  kRejected,
  kShed,
  kDeadline,
  kError,
  kMismatch,
};

/// Per-model serving knobs; the operating-point controller keeps its
/// defaults (inert on the single-rung light model).
serve::ModelConfig model_config(double weight) {
  serve::ModelConfig mc;
  mc.max_batch = 8;
  mc.max_delay_us = 500;
  // No queue can fill: the pacer keeps fewer than kSlots requests in
  // flight across both models, so none is ever rejected or shed.
  mc.queue_capacity = kSlots;
  mc.weight = weight;
  return mc;
}

/// One planned request of a step's schedule.
struct Planned {
  std::uint64_t offset_ns = 0;  ///< scheduled send, from step start
  std::uint32_t sample = 0;
  std::uint8_t model = 0;  ///< 0 heavy, 1 light
  std::uint8_t cls = 0;    ///< service class (priority)
};

/// One in-flight request, owned by the pacer until published and by the
/// collector until it retires it.
struct Slot {
  std::future<void> done;
  ccq::Tensor out{ccq::Shape{10}};
  std::uint64_t sched_ns = 0;
  std::uint64_t submitted_ns = 0;
  std::uint64_t version = 0;
  std::int32_t rung = -1;
  bool admitted = false;
};

/// A step's per-request record (by schedule index) and totals.
struct Step {
  double rate = 0.0;
  double seconds = 0.0;
  std::vector<Planned> plan;
  std::vector<double> lat_us;
  std::vector<std::uint8_t> outcome;
  std::vector<std::int32_t> rung;
  Samples late_us;
  Samples queue_depth;
  Samples swap_window_us;  ///< latencies of requests due during the swap
  /// First error message seen by the pacer / the collector.
  std::string errors[2];
  std::uint64_t heap = 0, floats = 0;
  std::uint64_t counter_requests = 0, counter_batches = 0, counter_switches = 0;

  /// Append another slice of the same rate.
  void merge(const Step& s) {
    seconds += s.seconds;
    plan.insert(plan.end(), s.plan.begin(), s.plan.end());
    lat_us.insert(lat_us.end(), s.lat_us.begin(), s.lat_us.end());
    outcome.insert(outcome.end(), s.outcome.begin(), s.outcome.end());
    rung.insert(rung.end(), s.rung.begin(), s.rung.end());
    late_us.append(s.late_us);
    queue_depth.append(s.queue_depth);
    swap_window_us.append(s.swap_window_us);
    for (int k = 0; k < 2; ++k) {
      if (errors[k].empty()) errors[k] = s.errors[k];
    }
    heap += s.heap;
    floats += s.floats;
    counter_requests += s.counter_requests;
    counter_batches += s.counter_batches;
    counter_switches += s.counter_switches;
  }

  /// Latencies in schedule order, of one service class when cls >= 0.
  Samples latencies(int cls = -1) const {
    Samples s;
    for (std::size_t i = 0; i < plan.size(); ++i) {
      if (cls >= 0 && plan[i].cls != cls) continue;
      s.add(lat_us[i]);
    }
    return s;
  }
  std::uint64_t count(Outcome o) const {
    return static_cast<std::uint64_t>(
        std::count(outcome.begin(), outcome.end(),
                   static_cast<std::uint8_t>(o)));
  }
  std::uint64_t failures() const { return plan.size() - count(kOk); }
  std::uint64_t within_slo() const {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < plan.size(); ++i) {
      n += outcome[i] == kOk && lat_us[i] <= kSloUs ? 1 : 0;
    }
    return n;
  }
  /// The queue grows when the last quarter of the schedule waits well
  /// beyond the first quarter.
  bool backlog() const {
    const std::size_t q = plan.size() / 4;
    if (q == 0) return false;
    Samples first, last;
    for (std::size_t i = 0; i < q; ++i) first.add(lat_us[i]);
    for (std::size_t i = plan.size() - q; i < plan.size(); ++i) {
      last.add(lat_us[i]);
    }
    return last.median() > 2.0 * first.median() + 200.0;
  }
  bool meets_slo() const {
    return p99(latencies()) <= kSloUs && !backlog();
  }
};

}  // namespace

void run_open_mixed(const RunOptions& o, Report& report) {
  const std::string heavy_path = export_model(
      {.image = 16, .width = 0.25f, .shift = 0, .rungs = 3},
      o.work_dir + "/heavy.ccqa");
  const std::string light_paths[2] = {
      export_model({.image = 16, .width = 0.25f, .shift = 1, .rungs = 1},
                   o.work_dir + "/light-a.ccqa"),
      export_model({.image = 16, .width = 0.25f, .shift = 2, .rungs = 1},
                   o.work_dir + "/light-b.ccqa")};
  // Same seed, same geometry: the three oracles share one sample pool.
  const Oracle heavy_oracle = make_oracle(heavy_path, 16, kPool, o.seed);
  const Oracle light_oracles[2] = {
      make_oracle(light_paths[0], 16, kPool, o.seed),
      make_oracle(light_paths[1], 16, kPool, o.seed)};
  const std::vector<ccq::Tensor>& pool = heavy_oracle.samples;
  const serve::ModelConfig heavy_cfg = model_config(4.0);
  const serve::ModelConfig light_cfg = model_config(1.0);
  /// Light version v serves light_paths[(v - 1) % 2].
  auto light_oracle = [&](std::uint64_t version) -> const Oracle& {
    return light_oracles[(version - 1) % 2];
  };

  // One set-up: both artifacts loaded, the server started, and one
  // correct reply from each model.  The median over all set-ups is
  // reported.
  std::vector<double> setup_s, load_ms;
  auto set_up = [&] {
    const std::uint64_t t0 = now_ns();
    ccq::hw::IntegerNetwork heavy = serve::load_artifact(heavy_path);
    const std::uint64_t t_load = now_ns();
    ccq::hw::IntegerNetwork light = serve::load_artifact(light_paths[0]);
    serve::ServeConfig sc;
    sc.workers = 2;
    auto next = std::make_unique<serve::InferenceServer>(sc);
    next->load("heavy", std::move(heavy), heavy_cfg);
    next->load("light", std::move(light), light_cfg);
    ccq::Tensor out_h({10}), out_l({10});
    std::int32_t rung_h = -1;
    serve::SubmitOptions opts;
    opts.served_rung = &rung_h;
    auto fh = next->submit(next->resolve("heavy"), pool[0], out_h, opts);
    auto fl = next->submit(next->resolve("light"), pool[0], out_l);
    fh.get();
    fl.get();
    const std::uint64_t t1 = now_ns();
    const bool ok =
        rung_h >= 0 &&
        heavy_oracle.matches(static_cast<std::size_t>(rung_h), 0,
                             out_h.data().data(), out_h.numel()) &&
        light_oracle(1).matches(0, 0, out_l.data().data(), out_l.numel());
    ++report.attempted;
    if (!ok) {
      ++report.failed;
      ++report.mismatches;
    }
    setup_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    load_ms.push_back(static_cast<double>(t_load - t0) / 1e6);
    return next;
  };
  std::unique_ptr<serve::InferenceServer> server;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    server.reset();
    server = set_up();
  }
  report.line(host_line(server->resolve("heavy").network()));

  Tracer tracer(4, 1 << 17);
  std::vector<Slot> slots(kSlots);
  std::uint64_t step_index = 0;
  std::uint64_t request_base = 0;
  Samples swap_ms;

  // Run one open-loop step at `rate` for `seconds`.
  auto run_step = [&](double rate, double seconds, bool traced) {
    Step step;
    step.rate = rate;
    step.seconds = seconds;
    {
      ccq::Rng rng(o.seed * 1000003ULL + ++step_index);
      double t = 0.0;
      const double horizon = seconds * 1e9;
      for (std::size_t i = 0;; ++i) {
        t += -std::log(1.0 - rng.uniform()) / rate * 1e9;
        if (t >= horizon) break;
        Planned p;
        p.offset_ns = static_cast<std::uint64_t>(t);
        p.sample = static_cast<std::uint32_t>(rng.uniform_int(kPool));
        p.model = rng.uniform() < kHeavyShare ? 0 : 1;
        p.cls = static_cast<std::uint8_t>(i % 3);
        step.plan.push_back(p);
      }
    }
    const std::size_t n = step.plan.size();
    step.lat_us.assign(n, kMissed);
    step.outcome.assign(n, kError);
    step.rung.assign(n, -1);
    step.late_us.reserve(n);
    step.queue_depth.reserve(1 << 16);
    const std::uint64_t base = request_base;
    request_base += n;

    std::atomic<std::uint64_t> published{0};
    std::atomic<std::uint64_t> retired{0};  ///< all indices below are done
    std::atomic<bool> sending{true};
    tracer.set_enabled(traced);
    auto both = [](const char* counter) {
      return serve_counter(std::string("serve.heavy.") + counter) +
             serve_counter(std::string("serve.light.") + counter);
    };
    const std::uint64_t c_req = both("requests");
    const std::uint64_t c_bat = both("batches");
    const std::uint64_t c_sw = serve_counter("serve.heavy.rung_switches");
    const std::uint64_t heap0 = heap_allocs();
    const std::uint64_t float0 = ccq::alloc_stats::count();
    const std::uint64_t start_ns = now_ns() + 2'000'000;
    std::uint64_t swap_start = 0, swap_end = 0;  // 0 = no swap

    std::thread pacer([&] {
      set_fine_timer_slack();
      for (std::uint64_t i = 0; i < n; ++i) {
        while (i >= retired.load(std::memory_order_acquire) + kSlots) {
        }
        const Planned& p = step.plan[i];
        Slot& slot = slots[i % kSlots];
        const std::uint64_t sched = start_ns + p.offset_ns;
        wait_until_ns(sched);
        const std::uint64_t t0 = now_ns();
        step.late_us.add(static_cast<double>(t0 - sched) / 1e3);
        slot.sched_ns = sched;
        slot.rung = -1;
        slot.admitted = false;
        const std::uint64_t id = base + i;
        serve::SubmitOptions opts;
        opts.priority = static_cast<serve::Priority>(p.cls);
        if (p.cls == 0) opts.deadline_us = kLowDeadlineUs;
        opts.served_rung = &slot.rung;
        const char* name = p.model == 0 ? "heavy" : "light";
        try {
          serve::ModelHandle handle = server->resolve(name);
          const std::uint64_t t1 = now_ns();
          try {
            slot.done = server->submit(handle, pool[p.sample], slot.out, opts);
          } catch (const serve::ModelRetiredError&) {
            // The swap retired the pinned version between resolve and
            // submit: resolve again, as the error asks callers to.
            handle = server->resolve(name);
            slot.done = server->submit(handle, pool[p.sample], slot.out, opts);
          }
          slot.version = handle.version();
          slot.submitted_ns = now_ns();
          slot.admitted = true;
          tracer.record(1, SpanKind::kResolve, id, t0, t1,
                        SpanKind::kRequest);
          tracer.record(1, SpanKind::kSubmit, id, t1, slot.submitted_ns,
                        SpanKind::kRequest);
        } catch (const serve::QueueFullError&) {
          step.outcome[i] = kRejected;
        } catch (const std::exception& e) {
          step.outcome[i] = kError;
          if (step.errors[0].empty()) step.errors[0] = e.what();
        }
        published.store(i + 1, std::memory_order_release);
      }
      sending.store(false, std::memory_order_release);
    });

    std::thread collector([&] {
      set_fine_timer_slack();
      // Index i is live when lo <= i < published; a live slot is done once
      // its future is ready (or it was never admitted).
      std::vector<std::uint8_t> done(kSlots, 0);
      std::uint64_t lo = 0;
      while (lo < n) {
        const std::uint64_t hi = published.load(std::memory_order_acquire);
        bool progress = false;
        for (std::uint64_t i = lo; i < hi; ++i) {
          if (done[i % kSlots]) continue;
          Slot& slot = slots[i % kSlots];
          if (slot.admitted && slot.done.wait_for(std::chrono::seconds(0)) !=
                                   std::future_status::ready) {
            continue;
          }
          const std::uint64_t t = now_ns();
          done[i % kSlots] = 1;
          progress = true;
          if (!slot.admitted) continue;  // outcome set by the pacer
          const Planned& p = step.plan[i];
          const std::uint64_t id = base + i;
          tracer.record(2, SpanKind::kReplyWait, id, slot.submitted_ns, t,
                        SpanKind::kRequest);
          tracer.record(2, SpanKind::kRequest, id, slot.sched_ns, t);
          try {
            slot.done.get();
            const Oracle& oracle =
                p.model == 0 ? heavy_oracle : light_oracle(slot.version);
            const bool ok =
                slot.rung >= 0 &&
                oracle.matches(static_cast<std::size_t>(slot.rung), p.sample,
                               slot.out.data().data(), slot.out.numel());
            step.outcome[i] = ok ? kOk : kMismatch;
            step.rung[i] = slot.rung;
            if (ok) {
              step.lat_us[i] = static_cast<double>(t - slot.sched_ns) / 1e3;
            }
          } catch (const serve::RequestShedError&) {
            step.outcome[i] = kShed;
          } catch (const serve::DeadlineExceededError&) {
            step.outcome[i] = kDeadline;
          } catch (const std::exception& e) {
            step.outcome[i] = kError;
            if (step.errors[1].empty()) step.errors[1] = e.what();
          }
        }
        while (lo < hi && done[lo % kSlots]) {
          done[lo % kSlots] = 0;
          ++lo;
        }
        retired.store(lo, std::memory_order_release);
        // Poll every ~20 us: reply timestamps carry at most that error.
        if (!progress) {
          std::this_thread::sleep_for(std::chrono::microseconds(20));
        }
      }
    });

    // Third thread: one hot-swap of the light model mid-step, and (when
    // traced) queue-depth samples.
    std::thread swapper([&] {
      const std::uint64_t swap_at =
          start_ns + static_cast<std::uint64_t>(seconds * 0.5e9);
      // Untraced, the thread sleeps until the swap and through the rest
      // of the step; traced, it also samples the queue every 250 us.
      const auto period = std::chrono::microseconds(traced ? 250 : 2000);
      bool swapped = false;
      while (sending.load(std::memory_order_acquire)) {
        if (!swapped && now_ns() >= swap_at) {
          const std::uint64_t v = server->resolve("light").version();
          const std::uint64_t t0 = now_ns();
          server->load("light", light_paths[v % 2], light_cfg);
          const std::uint64_t t1 = now_ns();
          tracer.record(3, SpanKind::kSwap, base + n, t0, t1);
          swap_start = t0;
          swap_end = t1;
          // Retire the version before last: no pinned handle still uses it.
          if (v > 1) server->unload("light", v - 1);
          swapped = true;
        }
        if (traced) {
          step.queue_depth.add(static_cast<double>(server->queue_depth()));
        }
        std::this_thread::sleep_for(period);
      }
    });

    pacer.join();
    swapper.join();
    collector.join();
    step.heap = heap_allocs() - heap0;
    step.floats = ccq::alloc_stats::count() - float0;
    step.counter_requests = both("requests") - c_req;
    step.counter_batches = both("batches") - c_bat;
    step.counter_switches = serve_counter("serve.heavy.rung_switches") - c_sw;
    tracer.set_enabled(false);
    if (swap_end > 0) {
      swap_ms.add(static_cast<double>(swap_end - swap_start) / 1e6);
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t due = start_ns + step.plan[i].offset_ns;
        if (due >= swap_start && due <= swap_end) {
          step.swap_window_us.add(step.lat_us[i]);
        }
      }
    }
    return step;
  };

  auto fixed_steps = [&](double scale, bool traced) {
    std::vector<Step> steps(3);
    for (std::size_t slice = 0; slice < kSlices; ++slice) {
      for (std::size_t k = 0; !o.trace && k < kSetupsPerSlice; ++k) set_up();
      for (std::size_t k = 0; k < 3; ++k) {
        steps[k].rate = kRates[k];
        steps[k].merge(run_step(
            kRates[k], o.seconds * scale * kStepShare[k] / kSlices, traced));
      }
    }
    return steps;
  };
  auto account = [&](const std::vector<Step>& steps) {
    for (const auto& s : steps) {
      report.attempted += s.plan.size();
      report.failed += s.failures();
      report.mismatches += s.count(kMismatch);
    }
  };
  auto describe = [&](const std::vector<Step>& steps, const char* label) {
    for (std::size_t k = 0; k < steps.size(); ++k) {
      const Step& s = steps[k];
      std::ostringstream line;
      line << label << " step " << kRateNames[k] << " (" << s.rate
           << " rps offered, " << s.plan.size() << " sent): latency us "
           << s.latencies().summary() << "; high class "
           << s.latencies(2).summary() << "; failed " << s.failures()
           << " (rejected " << s.count(kRejected) << ", shed "
           << s.count(kShed) << ", deadline " << s.count(kDeadline)
           << ", mismatch " << s.count(kMismatch) << "); send lateness us "
           << s.late_us.summary();
      for (const auto& error : s.errors) {
        if (!error.empty()) line << "; error: " << error;
      }
      report.line(line.str());
    }
  };
  auto end_to_end = [&](const std::vector<Step>& steps, Report& out) {
    const Step& mid = steps[1];
    const Step& high = steps[2];
    out.metric("lat_p50_us", mid.latencies().median(), "us");
    out.metric("throughput_rps", ratio(high.within_slo(), high.seconds),
               "1/s");
    out.metric("lat_p99_us", p99(mid.latencies()), "us");
    out.metric("lat_p99_us.low", p99(steps[0].latencies()), "us");
    out.metric("lat_p99_us.high", p99(high.latencies()), "us");
    out.metric("hi_p99_us", p99(high.latencies(2)), "us");
  };

  if (!o.trace) {
    // Fixed steps take half the run, the ladder most of the rest.
    const double ladder_s = o.seconds * 0.4 / (kLadderSteps + kRefinements);
    const std::vector<Step> steps = fixed_steps(1.0, false);
    report.metric("setup_s", median_of(setup_s), "s");
    account(steps);
    describe(steps, "untraced");
    end_to_end(steps, report);

    // Ladder above mid: geometric steps until one misses the SLO, then
    // bisect the bracket in log space and interpolate the SLO crossing
    // between the bracket's p99s.  Ladder failures are the probe's signal,
    // not failed operations, and stay out of `failed`.
    double pass = kRates[1], fail = 0.0;
    double pass_p99 = p99(steps[1].latencies());
    double fail_p99 = 0.0;
    std::ostringstream ladder;
    ladder << "ladder (SLO p99 " << kSloUs << " us):";
    auto probe = [&](double rate) {
      const Step s = run_step(rate, ladder_s, false);
      report.mismatches += s.count(kMismatch);
      const double step_p99 = p99(s.latencies());
      const bool ok = s.meets_slo();
      ladder << " " << static_cast<long>(rate) << "=" << (ok ? "pass" : "fail")
             << "(p99 " << step_p99 << (s.backlog() ? ", backlog" : "") << ")";
      (ok ? pass : fail) = rate;
      (ok ? pass_p99 : fail_p99) = step_p99;
      return ok;
    };
    for (std::size_t k = 1; k <= kLadderSteps; ++k) {
      if (!probe(kRates[1] * std::pow(kLadderRatio, static_cast<double>(k)))) {
        break;
      }
    }
    double slo_rps = pass;
    if (fail > 0.0) {
      for (std::size_t r = 0; r < kRefinements; ++r) {
        probe(std::sqrt(pass * fail));
      }
      slo_rps = pass;
      if (std::isfinite(fail_p99) && fail_p99 > kSloUs && pass_p99 > 0.0 &&
          pass_p99 <= kSloUs) {
        const double f =
            std::log(kSloUs / pass_p99) / std::log(fail_p99 / pass_p99);
        slo_rps = pass * std::pow(fail / pass, std::clamp(f, 0.0, 1.0));
      }
    }
    report.line(ladder.str());
    report.metric("slo_rps", slo_rps, "1/s");
    return;
  }

  // Traced run: untraced fixed steps, traced fixed steps (spans and the
  // program's own counters on), a backlog burst, then the engine probe on
  // the heavy model.
  report.metric("setup_s", median_of(setup_s), "s");
  const std::vector<Step> plain = fixed_steps(0.4, false);
  ccq::telemetry::set_metrics_enabled(true);
  const std::vector<Step> spans = fixed_steps(0.4, true);
  account(plain);
  account(spans);
  describe(plain, "untraced");
  describe(spans, "traced");
  Report e2e_plain, e2e_traced;
  end_to_end(plain, e2e_plain);
  end_to_end(spans, e2e_traced);
  report_trace_overhead(e2e_plain, e2e_traced, report);

  const Step& high = spans[2];
  const Samples submit_ns = tracer.self_ns(SpanKind::kSubmit);
  const Samples wait_ns = tracer.self_ns(SpanKind::kReplyWait);
  report.metric("server.submit_ns.p50", submit_ns.median(), "ns");
  report.metric("server.submit_ns.p99", p99(submit_ns), "ns");
  report.metric("server.reply_wait_us.p50", wait_ns.median() / 1e3, "us");
  report.metric("server.reply_wait_us.p99", p99(wait_ns) / 1e3, "us");
  report.metric("registry.resolve_ns",
                tracer.self_ns(SpanKind::kResolve).median(), "ns");
  const double batch_mean = ratio(high.counter_requests, high.counter_batches);
  report.metric("server.batch_mean", batch_mean, "count");
  report.metric("server.batch_fill", ratio(batch_mean, heavy_cfg.max_batch),
                "ratio");
  report.metric("server.queue_depth.mean", high.queue_depth.mean(), "count");
  report.metric("server.queue_depth.max", high.queue_depth.max(), "count");
  std::uint64_t attempted = 0, rejected = 0, shed = 0, deadline = 0;
  std::uint64_t switches = 0, heavy_served = 0, heavy_deep = 0;
  for (const auto& s : spans) {
    attempted += s.plan.size();
    rejected += s.count(kRejected);
    shed += s.count(kShed);
    deadline += s.count(kDeadline);
    switches += s.counter_switches;
    for (std::size_t i = 0; i < s.plan.size(); ++i) {
      if (s.plan[i].model == 0 && s.outcome[i] == kOk) {
        ++heavy_served;
        heavy_deep += s.rung[i] > 0 ? 1 : 0;
      }
    }
  }
  report.metric("server.rejected_frac", ratio(rejected, attempted), "ratio");
  report.metric("server.shed_frac", ratio(shed, attempted), "ratio");
  report.metric("server.deadline_miss_frac", ratio(deadline, attempted),
                "ratio");

  // serve/sla: the fair scheduler's split of a backlog.  kBurst requests
  // of each model are queued at once (an offered mix of 1:1); while both
  // queues stay non-empty the 4:1 weights alone decide the order, so the
  // heavy share of the first kBurst replies is the scheduler's share.
  {
    std::vector<Slot> burst(2 * kBurst);
    const serve::ModelHandle handles[2] = {server->resolve("heavy"),
                                           server->resolve("light")};
    for (std::size_t i = 0; i < burst.size(); ++i) {
      serve::SubmitOptions opts;
      opts.served_rung = &burst[i].rung;
      burst[i].done =
          server->submit(handles[i % 2], pool[i % kPool], burst[i].out, opts);
    }
    std::vector<std::uint8_t> seen(burst.size(), 0);
    std::size_t replied = 0, heavy_first = 0;
    while (replied < kBurst) {
      for (std::size_t i = 0; i < burst.size() && replied < kBurst; ++i) {
        if (seen[i] || burst[i].done.wait_for(std::chrono::seconds(0)) !=
                           std::future_status::ready) {
          continue;
        }
        seen[i] = 1;
        ++replied;
        heavy_first += i % 2 == 0 ? 1 : 0;
      }
    }
    std::uint64_t wrong = 0;
    for (std::size_t i = 0; i < burst.size(); ++i) {
      const Oracle& oracle =
          i % 2 == 0 ? heavy_oracle : light_oracle(handles[1].version());
      bool ok = false;
      try {
        burst[i].done.get();
        ok = burst[i].rung >= 0 &&
             oracle.matches(static_cast<std::size_t>(burst[i].rung), i % kPool,
                            burst[i].out.data().data(), burst[i].out.numel());
      } catch (const std::exception&) {
      }
      wrong += ok ? 0 : 1;
    }
    report.attempted += burst.size();
    report.failed += wrong;
    report.mismatches += wrong;
    report.metric("sla.share.heavy", ratio(heavy_first, kBurst), "ratio");
  }
  report.metric("sla.p99_us.low", p99(high.latencies(0)), "us");
  report.metric("sla.p99_us.normal", p99(high.latencies(1)), "us");
  report.metric("sla.p99_us.high", p99(high.latencies(2)), "us");
  report.metric("registry.swap_ms", swap_ms.median(), "ms");
  Samples swap_window;
  for (const auto& s : spans) swap_window.append(s.swap_window_us);
  report.metric("registry.swap_p99_us", p99(swap_window), "us");
  report.line("swap window requests: " + swap_window.summary());
  report.metric("adaptive.switches", static_cast<double>(switches), "count");
  report.metric("adaptive.deep_share", ratio(heavy_deep, heavy_served),
                "ratio");
  report.metric("artifact.load_ms", median_of(load_ms), "ms");
  report.metric("artifact.bytes",
                static_cast<double>(std::filesystem::file_size(heavy_path)),
                "bytes");
  std::uint64_t heap = 0, floats = 0, served = 0;
  Samples late;
  for (const auto& s : plain) {
    heap += s.heap;
    floats += s.floats;
    served += s.count(kOk);
    late.append(s.late_us);
  }
  report.metric("alloc.heap_per_request", ratio(heap, served), "count");
  report.metric("alloc.float_per_request", ratio(floats, served), "count");
  report.metric("gen.late_p99_us", p99(late), "us");

  tracer.set_enabled(true);
  probe_engine(server->resolve("heavy").network(), 16, o.seconds * 0.2, o.seed,
               tracer, report);
  tracer.set_enabled(false);
  for (const auto& line : tracer.summary()) report.line(line);
  tracer.write(o.work_dir + "/trace-open-mixed.jsonl");
  server->shutdown();
}

}  // namespace perfbench
