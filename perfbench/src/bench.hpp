// Shared machinery of the deployment benchmark: exact latency samples,
// the metric report, span tracing, the whole-process allocation count,
// the served models and the correctness oracle.
//
// The benchmark drives only public calls of the library (artifact load,
// the inference server, the TCP front end, the wire codec, the integer
// engine, im2col and igemm_run) and times every request itself; it never
// reads the program's log2 latency histograms.
#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "ccq/common/exec.hpp"
#include "ccq/common/workspace.hpp"
#include "ccq/hw/integer_engine.hpp"
#include "ccq/tensor/tensor.hpp"

namespace perfbench {

/// Monotonic nanoseconds (steady clock).
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Let the calling thread's sleeps end within ~1 us of their deadline
/// (Linux timer slack; the default 50 us would show as pacing jitter).
void set_fine_timer_slack();

/// Wait until `deadline_ns` on the steady clock: sleeps of at most 100 us,
/// then a short spin.
void wait_until_ns(std::uint64_t deadline_ns);

/// num / den, or 0 when den is 0.
inline double ratio(double num, double den) {
  return den > 0 ? num / den : 0.0;
}

/// Current value of the program's named telemetry counter `name`
/// (0 when it was never registered).
std::uint64_t serve_counter(const std::string& name);

/// Heap allocations (every global operator new) since process start.
std::uint64_t heap_allocs();

/// A failed or refused request misses every latency limit: it enters the
/// sample set as +infinity.
inline constexpr double kMissed = std::numeric_limits<double>::infinity();

/// An exact sample set (no bucketing), kept in insertion order.
/// Quantiles are nearest-rank.
class Samples {
 public:
  void reserve(std::size_t n) { values_.reserve(n); }
  void add(double v) {
    values_.push_back(v);
    sorted_.clear();
  }
  void append(const Samples& other);
  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  /// Nearest-rank quantile, q in (0, 1]; 0 when empty.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  double mean() const;
  double max() const { return quantile(1.0); }
  /// The tail statistic the p99 metrics report: the q-quantile of each
  /// run of consecutive samples just long enough to leave ten beyond it
  /// (1000 for p99), then the median over those windows (the whole-set
  /// quantile when there are fewer samples than one window).  Host
  /// preemption on a shared virtual machine stalls a process for 1-50 ms
  /// a few times a second, in bursts; a whole-run tail then mostly counts
  /// the bursts, while the typical window's tail still shows queueing,
  /// batching delay and the program's own slow paths.
  double windowed_quantile(double q) const;
  /// The highest of p50/p90/p99/p99.9/p99.99 that leaves at least ten
  /// samples above it, as {percentile, value}; {0, 0} below 20 samples.
  std::pair<double, double> supported_tail() const;
  /// "median 512.3, mean 530.1, p99 901.2 (n=12345)": the median, the
  /// mean, the highest percentile with at least ten samples beyond it,
  /// and the count.
  std::string summary(double scale = 1.0) const;

 private:
  const std::vector<double>& sorted() const;
  std::vector<double> values_;
  mutable std::vector<double> sorted_;  ///< lazily sorted copy
};

/// The windowed p99 the per-layer p99 metrics report.
inline double p99(const Samples& s) { return s.windowed_quantile(0.99); }

/// Everything one run prints: named metrics with units, human-readable
/// lines, and the operation counts of the final JSON line.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void line(const std::string& text);
  double value(const std::string& name) const;
  bool has(const std::string& name) const;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;

  /// Human lines, then the metrics, then one JSON object as the last line.
  void print(const std::vector<std::string>& order) const;

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> lines_;
};

// ---- tracing ----------------------------------------------------------------

/// Span names: one per layer boundary the benchmark wraps.
enum class SpanKind : std::uint8_t {
  kRequest,        ///< root: one request, from its send (or schedule) to reply
  kResolve,        ///< InferenceServer::resolve
  kSubmit,         ///< InferenceServer::submit
  kReplyWait,      ///< submit returned -> future ready
  kTcpRtt,         ///< TcpClient::infer round trip
  kSwap,           ///< hot-swap InferenceServer::load
  kForward,        ///< IntegerNetwork::forward
  kPlan,           ///< one conv/linear plan replayed (im2col + igemm)
  kIm2col,         ///< im2col
  kIgemm,          ///< igemm_run
  kCount
};
const char* span_name(SpanKind kind);

/// One recorded span.  `id` and `parent` are unique per run: a request's
/// spans share `request`, and ids are derived from (request, kind, seq)
/// so threads need no coordination to link parent and child.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t request = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  SpanKind kind = SpanKind::kRequest;
  std::uint16_t thread = 0;
};

/// Span id for (request, kind, sequence within the request).
inline std::uint64_t span_id(std::uint64_t request, SpanKind kind,
                             std::uint64_t seq = 0) {
  return ((request * static_cast<std::uint64_t>(SpanKind::kCount) +
           static_cast<std::uint64_t>(kind)) << 8) + seq + 1;
}

/// In-memory span store: one preallocated log per recording thread, so
/// recording never locks or (within the reserved capacity) allocates.
/// Spans are written out as JSON lines at exit.
class Tracer {
 public:
  explicit Tracer(std::size_t threads, std::size_t spans_per_thread);
  /// Switch recording on or off; call only while no thread records.
  void set_enabled(bool on) {
    enabled_ = on;
    flat_.clear();
  }
  /// Record one span on `thread`'s log (each thread owns one index).
  /// `parent` names the span of the same request that caused it (its
  /// sequence number is 0); `seq` tells apart same-kind spans of one
  /// request.  No-op while disabled.
  void record(std::size_t thread, SpanKind kind, std::uint64_t request,
              std::uint64_t start_ns, std::uint64_t end_ns,
              std::optional<SpanKind> parent = std::nullopt,
              std::uint64_t seq = 0);
  /// Self time of every span of `kind` (duration minus the part its
  /// children cover), in ns.
  Samples self_ns(SpanKind kind) const;
  /// Per-kind count / total / self time lines.
  std::vector<std::string> summary() const;
  /// Write every span as one JSON object per line.
  void write(const std::string& path) const;

 private:
  void compute_self() const;
  bool enabled_ = false;
  std::vector<std::vector<Span>> logs_;
  mutable std::vector<std::uint64_t> self_;  ///< parallel to flattened logs
  mutable std::vector<const Span*> flat_;
};

// ---- models and the correctness oracle -------------------------------------

/// A SimpleCNN on the 8/4/2 ladder.  `shift` rotates which layers sit at
/// which ladder position (layer i at position (i + shift) % 3), so two
/// shifts give two distinct models of the same shape.
struct ModelSpec {
  std::size_t image = 16;
  float width = 0.25f;
  std::size_t shift = 0;
  std::size_t rungs = 1;  ///< > 1: a multi-point (CCQA v3) artifact
};

/// Build, calibrate and export a model; returns the artifact path.
/// Model weights are fixed (they do not depend on the workload seed):
/// serving cost depends on geometry and bit widths, not weight values.
std::string export_model(const ModelSpec& spec, const std::string& path);

/// Seeded inputs and their expected logits.  `expected[r][i]` is the
/// logit row of sample i at serving rung r, from a direct batch-1
/// `IntegerNetwork::forward` of the artifact.
struct Oracle {
  std::vector<ccq::Tensor> samples;  ///< each (C, H, W)
  std::vector<ccq::Tensor> batch1;   ///< each (1, C, H, W)
  std::vector<std::vector<std::vector<float>>> expected;

  /// True when `logits` equals expected[rung][sample] bit for bit.
  bool matches(std::size_t rung, std::size_t sample, const float* logits,
               std::size_t n) const;
};

/// Draw `count` samples from `seed` and compute their expected logits
/// through a separately loaded copy of `artifact`.
Oracle make_oracle(const std::string& artifact, std::size_t image,
                   std::size_t count, std::uint64_t seed);

// ---- layer probes -----------------------------------------------------------

/// Per-plan replay of a network's conv/linear plans through the public
/// im2col + igemm_run API, plus the engine forward it is compared with.
/// Emits `igemm.*`, `im2col.*`, `hw.*.energy_pj`, `engine.per_sample_us.*`,
/// `engine.rung_us.*` and `engine.unattributed_frac`.
void probe_engine(const ccq::hw::IntegerNetwork& net, std::size_t image,
                  double budget_seconds, std::uint64_t seed, Tracer& tracer,
                  Report& report);

/// Label line naming the host: nproc, igemm ISA leg, per-plan kernel and
/// bit width.
std::string host_line(const ccq::hw::IntegerNetwork& net);

// ---- workloads --------------------------------------------------------------

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
};

void run_tcp_closed(const RunOptions& options, Report& report);
void run_open_mixed(const RunOptions& options, Report& report);
void run_engine_batch(const RunOptions& options, Report& report);

/// One fixed metric: name, unit, and which direction is better.
struct MetricInfo {
  std::string name;
  std::string unit;
  const char* better = "lower";
};
/// The fixed metric catalogue, in print order (BENCHMARK.json lists the
/// same names; `--describe` prints them).
const std::vector<MetricInfo>& end_to_end_metrics();
const std::vector<MetricInfo>& per_layer_metrics();
/// End-to-end tails and slo_rps, printed by name on the untraced runs of
/// the workloads that define them but kept out of BENCHMARK.json: on a
/// shared virtual machine they follow the host's contention (interquartile
/// range over median across ten runs of one build reached 0.7-2.0 on
/// open-mixed and tcp-closed), beyond any bound BENCHMARK.json allows.
const std::vector<MetricInfo>& reported_metrics();

/// `trace.overhead.*`: what tracing costs, so more cost reads higher —
/// traced minus untraced lat_p50_us and lat_p99_us, untraced minus traced
/// throughput_rps.
void report_trace_overhead(const Report& untraced, const Report& traced,
                           Report& report);

/// Write zero for every per-layer metric a workload's path does not reach,
/// so every traced run prints the full per-layer set.
void fill_unreached_layers(Report& report);

/// Median of a small vector (setup repetitions).
double median_of(std::vector<double> v);

}  // namespace perfbench
