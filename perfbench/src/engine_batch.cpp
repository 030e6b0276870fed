// engine-batch: direct IntegerNetwork::forward on one thread, no server.
//
// The larger 8/4/2 SimpleCNN (32x32, width 1.0) runs at batch 1, 8 and 32
// in interleaved rounds, so slow drift of the host clock hits every batch
// size alike.  Kernels do almost all the work here and every serving
// layer is bypassed: a serving change should leave this workload flat and
// a kernel change shows in full.
//
// Metric mapping on this workload: lat_p50_us / lat_p99_us are the
// batch-1 forward; throughput_rps is samples/s at batch 8.  A round is 40
// batch-1, 8 batch-8 and 1 batch-32 calls.
#include <filesystem>
#include <memory>

#include "bench.hpp"
#include "ccq/common/alloc.hpp"
#include "ccq/serve/artifact.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kPool = 64;
/// Set-ups before the measured rounds, then kSetupsPerRound more before
/// each round of a --trace 0 run: spread over the run, the set-up median
/// samples the host's state over the run like every other metric instead
/// of at one instant.
constexpr std::size_t kSetupReps = 5;
constexpr std::size_t kSetupsPerRound = 2;
/// Calls per round: batch 1, 8, 32.
constexpr std::size_t kRound[3] = {40, 8, 1};
constexpr std::size_t kBatch[3] = {1, 8, 32};

struct Pass {
  Samples call_us[3];  ///< per-call forward latency per batch size
  double busy_ns[3] = {0, 0, 0};
  std::uint64_t samples[3] = {0, 0, 0};
  std::uint64_t calls = 0, mismatches = 0;
  std::uint64_t heap = 0, floats = 0;
};

}  // namespace

void run_engine_batch(const RunOptions& o, Report& report) {
  const ModelSpec spec{.image = 32, .width = 1.0f, .shift = 0, .rungs = 1};
  const std::string path = export_model(spec, o.work_dir + "/engine.ccqa");
  const Oracle oracle = make_oracle(path, spec.image, kPool, o.seed);
  const std::size_t channels = oracle.samples[0].dim(0);
  const ccq::ExecContext serial;

  // One set-up: artifact load through the first correct forward, on a
  // cold workspace.  The median over all set-ups is reported.
  std::vector<double> setup_s, load_ms;
  auto set_up = [&] {
    const std::uint64_t t0 = now_ns();
    auto loaded = std::make_unique<ccq::hw::IntegerNetwork>(
        ccq::serve::load_artifact(path));
    const std::uint64_t t_load = now_ns();
    ccq::Workspace cold;
    const ccq::Tensor y = loaded->forward(oracle.batch1[0], cold, serial);
    const bool ok = oracle.matches(0, 0, y.data().data(), y.numel());
    const std::uint64_t t1 = now_ns();
    ++report.attempted;
    if (!ok) {
      ++report.failed;
      ++report.mismatches;
    }
    setup_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    load_ms.push_back(static_cast<double>(t_load - t0) / 1e6);
    return loaded;
  };
  std::unique_ptr<ccq::hw::IntegerNetwork> net;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) net = set_up();
  report.line(host_line(*net));

  // Batches drawn from the seeded pool; every output row is checked
  // against the batch-1 oracle row of its sample.
  std::vector<ccq::Tensor> batches[3];
  std::vector<std::vector<std::size_t>> members[3];
  ccq::Rng rng(o.seed ^ 0xbadc0deULL);
  for (std::size_t bi = 0; bi < 3; ++bi) {
    for (std::size_t j = 0; j < 8; ++j) {
      ccq::Tensor x({kBatch[bi], channels, spec.image, spec.image});
      std::vector<std::size_t> idx;
      const std::size_t per = oracle.samples[0].numel();
      for (std::size_t r = 0; r < kBatch[bi]; ++r) {
        const std::size_t s = rng.uniform_int(kPool);
        idx.push_back(s);
        std::copy(oracle.samples[s].data().begin(),
                  oracle.samples[s].data().end(),
                  x.data().begin() + static_cast<std::ptrdiff_t>(r * per));
      }
      batches[bi].push_back(std::move(x));
      members[bi].push_back(std::move(idx));
    }
  }

  ccq::Workspace ws;
  Tracer tracer(1, 1 << 18);
  std::uint64_t request = 0;
  auto measure = [&](double seconds, bool traced) {
    Pass pass;
    for (auto& s : pass.call_us) s.reserve(1 << 16);
    tracer.set_enabled(traced);
    // Warm the pools for every batch size before the counters start.
    for (std::size_t bi = 0; bi < 3; ++bi) {
      ws.recycle(net->forward(batches[bi][0], ws, serial));
    }
    const std::uint64_t heap0 = heap_allocs();
    const std::uint64_t float0 = ccq::alloc_stats::count();
    const std::uint64_t end =
        now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
    std::size_t round = 0;
    while (now_ns() < end || round < 2) {
      for (std::size_t k = 0; !o.trace && round > 0 && k < kSetupsPerRound;
           ++k) {
        set_up();
      }
      for (std::size_t bi = 0; bi < 3; ++bi) {
        for (std::size_t c = 0; c < kRound[bi]; ++c) {
          const std::size_t j = (round * kRound[bi] + c) % batches[bi].size();
          const std::uint64_t t0 = now_ns();
          ccq::Tensor y = net->forward(batches[bi][j], ws, serial);
          const std::uint64_t t1 = now_ns();
          tracer.record(0, SpanKind::kForward, request++, t0, t1);
          const std::size_t classes = y.dim(1);
          for (std::size_t r = 0; r < kBatch[bi]; ++r) {
            if (!oracle.matches(0, members[bi][j][r],
                                y.data().data() + r * classes, classes)) {
              ++pass.mismatches;
            }
          }
          ws.recycle(std::move(y));
          pass.call_us[bi].add(static_cast<double>(t1 - t0) / 1e3);
          pass.busy_ns[bi] += static_cast<double>(t1 - t0);
          pass.samples[bi] += kBatch[bi];
          ++pass.calls;
        }
      }
      ++round;
    }
    pass.heap = heap_allocs() - heap0;
    pass.floats = ccq::alloc_stats::count() - float0;
    tracer.set_enabled(false);
    return pass;
  };

  auto end_to_end = [&](const Pass& p, Report& out) {
    auto per_s = [&](std::size_t bi) {
      return ratio(p.samples[bi], p.busy_ns[bi] / 1e9);
    };
    out.metric("lat_p50_us", p.call_us[0].median(), "us");
    // Work done per second of batch-8 calls.  The host flips between a
    // fast and a slow state in spells of a few rounds; a rate over the
    // whole pass averages the two, where the median call would jump from
    // one state to the other as their shares cross one half.
    out.metric("throughput_rps", per_s(1), "1/s");
    out.metric("lat_p99_us", p99(p.call_us[0]), "us");
    report.line("samples/s: batch 1 " + std::to_string(per_s(0)) +
                ", batch 32 " + std::to_string(per_s(2)));
  };
  auto describe = [&](const Pass& p, const char* label) {
    for (std::size_t bi = 0; bi < 3; ++bi) {
      report.line(std::string(label) + " forward b" +
                  std::to_string(kBatch[bi]) + " us: " +
                  p.call_us[bi].summary());
    }
  };

  if (!o.trace) {
    const Pass p = measure(o.seconds * 0.9, false);
    report.metric("setup_s", median_of(setup_s), "s");
    report.attempted += p.calls;
    report.failed += p.mismatches;
    report.mismatches += p.mismatches;
    end_to_end(p, report);
    describe(p, "untraced");
    return;
  }

  // Traced run: untraced pass, traced pass, then the per-plan replay.
  report.metric("setup_s", median_of(setup_s), "s");
  const Pass plain = measure(o.seconds * 0.3, false);
  const Pass spans = measure(o.seconds * 0.3, true);
  describe(plain, "untraced");
  describe(spans, "traced");
  Report e2e_plain, e2e_traced;
  end_to_end(plain, e2e_plain);
  end_to_end(spans, e2e_traced);
  report_trace_overhead(e2e_plain, e2e_traced, report);
  report.attempted += plain.calls + spans.calls;
  report.failed += plain.mismatches + spans.mismatches;
  report.mismatches += plain.mismatches + spans.mismatches;
  report.metric("alloc.heap_per_request",
                ratio(plain.heap, plain.calls),
                "count");
  report.metric("alloc.float_per_request",
                ratio(plain.floats, plain.calls),
                "count");
  report.metric("artifact.load_ms", median_of(load_ms), "ms");
  report.metric("artifact.bytes",
                static_cast<double>(std::filesystem::file_size(path)), "bytes");
  tracer.set_enabled(true);
  probe_engine(*net, spec.image, o.seconds * 0.3, o.seed, tracer, report);
  tracer.set_enabled(false);
  for (const auto& line : tracer.summary()) report.line(line);
  tracer.write(o.work_dir + "/trace-engine-batch.jsonl");
}

}  // namespace perfbench
