#include "bench.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <new>
#include <sstream>
#include <thread>
#include <unordered_map>

#include <sys/prctl.h>

#include "ccq/common/rng.hpp"
#include "ccq/common/telemetry.hpp"
#include "ccq/core/trail.hpp"
#include "ccq/models/simple.hpp"
#include "ccq/quant/ladder.hpp"
#include "ccq/quant/policy.hpp"
#include "ccq/serve/artifact.hpp"

// ---- whole-process allocation count ----------------------------------------
//
// Every global operator new in this binary bumps one counter, so
// `alloc.heap_per_request` covers all heap traffic (promises, frames,
// strings, containers), not only the float storage `alloc_stats` sees.
// The load generators reuse their own inputs and outputs, so what the
// counter moves by during a measured phase belongs to the library.

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};

void* counted_alloc(std::size_t n, std::size_t align) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (n == 0) n = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(n);
  } else {
    p = std::aligned_alloc(align, (n + align - 1) / align * align);
  }
  return p;
}
}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n, 0)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted_alloc(n, 0)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, std::align_val_t a) {
  if (void* p = counted_alloc(n, static_cast<std::size_t>(a))) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t a) {
  if (void* p = counted_alloc(n, static_cast<std::size_t>(a))) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n, 0);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n, 0);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace perfbench {

std::uint64_t serve_counter(const std::string& name) {
  const int id = ccq::telemetry::find_named_metric(
      ccq::telemetry::NamedKind::kCounter, name);
  return id < 0 ? 0 : ccq::telemetry::named_counter_value(id);
}

std::uint64_t heap_allocs() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}

void set_fine_timer_slack() { prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

void wait_until_ns(std::uint64_t deadline_ns) {
  // Short sleeps keep the vCPU from dropping into a deep idle (whose
  // wake-up can take milliseconds on a virtual machine) without burning
  // a core; the last few microseconds spin.
  constexpr std::uint64_t kSpinNs = 30'000, kMaxSleepNs = 100'000;
  for (std::uint64_t now = now_ns(); now < deadline_ns; now = now_ns()) {
    if (deadline_ns - now > kSpinNs) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(
          std::min(deadline_ns - now - kSpinNs, kMaxSleepNs)));
    }
  }
}

// ---- samples ----------------------------------------------------------------

void Samples::append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_.clear();
}

const std::vector<double>& Samples::sorted() const {
  if (sorted_.size() != values_.size()) {
    sorted_ = values_;
    std::sort(sorted_.begin(), sorted_.end());
  }
  return sorted_;
}

namespace {
double nearest_rank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}
}  // namespace

double Samples::quantile(double q) const { return nearest_rank(sorted(), q); }

double Samples::windowed_quantile(double q) const {
  const auto window = static_cast<std::size_t>(std::ceil(10.0 / (1.0 - q)));
  if (values_.size() < window) return quantile(q);
  std::vector<double> per_window, chunk;
  for (std::size_t start = 0; start + window <= values_.size();
       start += window) {
    chunk.assign(values_.begin() + static_cast<std::ptrdiff_t>(start),
                 values_.begin() + static_cast<std::ptrdiff_t>(start + window));
    std::sort(chunk.begin(), chunk.end());
    per_window.push_back(nearest_rank(chunk, q));
  }
  std::sort(per_window.begin(), per_window.end());
  return nearest_rank(per_window, 0.5);
}

double Samples::mean() const {
  if (values_.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values_) sum += v;
  return sum / static_cast<double>(values_.size());
}

std::pair<double, double> Samples::supported_tail() const {
  std::pair<double, double> best{0.0, 0.0};
  for (double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    const double beyond =
        static_cast<double>(values_.size()) * (1.0 - p / 100.0);
    if (beyond >= 10.0) best = {p, quantile(p / 100.0)};
  }
  return best;
}

std::string Samples::summary(double scale) const {
  std::ostringstream out;
  out << std::fixed << std::setprecision(1) << "median " << median() * scale
      << ", mean " << mean() * scale;
  const auto [p, v] = supported_tail();
  if (p > 0.0) {
    out << ", p" << std::defaultfloat << std::setprecision(6) << p
        << std::fixed << std::setprecision(1) << " " << v * scale;
  }
  if (values_.size() >= 2000) {
    out << ", windowed p99 " << windowed_quantile(0.99) * scale;
  }
  out << " (n=" << values_.size() << ")";
  return out.str();
}

double median_of(std::vector<double> v) {
  Samples s;
  for (double x : v) s.add(x);
  return s.median();
}

// ---- report -----------------------------------------------------------------

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = Metric{value, unit};
}

void Report::line(const std::string& text) { lines_.push_back(text); }

double Report::value(const std::string& name) const {
  const auto it = metrics_.find(name);
  return it == metrics_.end() ? 0.0 : it->second.value;
}

bool Report::has(const std::string& name) const {
  return metrics_.count(name) != 0;
}

namespace {
/// JSON has no infinity: a p99 made infinite by failed requests prints
/// as the largest finite double (the run then also reports failures).
std::string json_number(double v) {
  if (!std::isfinite(v)) v = std::numeric_limits<double>::max();
  std::ostringstream out;
  out << std::setprecision(17) << v;
  return out.str();
}
}  // namespace

void Report::print(const std::vector<std::string>& order) const {
  for (const auto& text : lines_) std::cout << text << "\n";
  const double fail_frac =
      attempted == 0 ? 0.0
                     : static_cast<double>(failed) /
                           static_cast<double>(attempted);
  std::cout << "fail_frac = " << fail_frac << " ratio (" << failed
            << " failed of " << attempted << " attempted, " << mismatches
            << " output mismatches)\n";
  for (const auto& name : order) {
    const auto it = metrics_.find(name);
    if (it == metrics_.end()) continue;
    std::cout << name << " = " << std::setprecision(6) << it->second.value
              << " " << it->second.unit << "\n";
  }
  for (const auto& [name, m] : metrics_) {
    if (std::find(order.begin(), order.end(), name) != order.end()) continue;
    std::cout << name << " = " << std::setprecision(6) << m.value << " "
              << m.unit << " (reported, not gated)\n";
  }
  std::ostringstream json;
  json << "{\"correct\": " << (mismatches == 0 ? "true" : "false")
       << ", \"attempted\": " << std::max<std::uint64_t>(attempted, 1)
       << ", \"failed\": " << failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& name : order) {
    const auto it = metrics_.find(name);
    if (it == metrics_.end()) continue;
    json << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
         << json_number(it->second.value) << ", \"unit\": \""
         << it->second.unit << "\"}";
    first = false;
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

// ---- tracing ----------------------------------------------------------------

const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kRequest: return "request";
    case SpanKind::kResolve: return "registry.resolve";
    case SpanKind::kSubmit: return "server.submit";
    case SpanKind::kReplyWait: return "server.reply_wait";
    case SpanKind::kTcpRtt: return "net.rtt";
    case SpanKind::kSwap: return "registry.swap";
    case SpanKind::kForward: return "engine.forward";
    case SpanKind::kPlan: return "engine.plan";
    case SpanKind::kIm2col: return "tensor.im2col";
    case SpanKind::kIgemm: return "tensor.igemm";
    case SpanKind::kCount: break;
  }
  return "?";
}

Tracer::Tracer(std::size_t threads, std::size_t spans_per_thread)
    : logs_(threads) {
  for (auto& log : logs_) log.reserve(spans_per_thread);
}

void Tracer::record(std::size_t thread, SpanKind kind, std::uint64_t request,
                    std::uint64_t start_ns, std::uint64_t end_ns,
                    std::optional<SpanKind> parent, std::uint64_t seq) {
  if (!enabled_) return;
  Span span;
  span.id = span_id(request, kind, seq);
  span.parent = parent ? span_id(request, *parent) : 0;
  span.request = request;
  span.start_ns = start_ns;
  span.end_ns = std::max(end_ns, start_ns);
  span.kind = kind;
  span.thread = static_cast<std::uint16_t>(thread);
  logs_[thread].push_back(span);
}

void Tracer::compute_self() const {
  if (!flat_.empty()) return;
  for (const auto& log : logs_) {
    for (const auto& span : log) flat_.push_back(&span);
  }
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(flat_.size());
  for (std::size_t i = 0; i < flat_.size(); ++i) index[flat_[i]->id] = i;
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(
      flat_.size());
  for (const Span* span : flat_) {
    if (span->parent == 0) continue;
    const auto it = index.find(span->parent);
    if (it != index.end()) {
      kids[it->second].emplace_back(span->start_ns, span->end_ns);
    }
  }
  self_.assign(flat_.size(), 0);
  for (std::size_t i = 0; i < flat_.size(); ++i) {
    const Span& span = *flat_[i];
    auto& children = kids[i];
    std::sort(children.begin(), children.end());
    // Union of child intervals clipped to the parent.
    std::uint64_t covered = 0, cursor = span.start_ns;
    for (auto [s, e] : children) {
      s = std::max(s, cursor);
      e = std::min(e, span.end_ns);
      if (e > s) {
        covered += e - s;
        cursor = e;
      }
    }
    self_[i] = (span.end_ns - span.start_ns) - covered;
  }
}

Samples Tracer::self_ns(SpanKind kind) const {
  compute_self();
  Samples out;
  for (std::size_t i = 0; i < flat_.size(); ++i) {
    if (flat_[i]->kind == kind) out.add(static_cast<double>(self_[i]));
  }
  return out;
}

std::vector<std::string> Tracer::summary() const {
  compute_self();
  std::vector<std::string> lines;
  for (int k = 0; k < static_cast<int>(SpanKind::kCount); ++k) {
    const auto kind = static_cast<SpanKind>(k);
    double total = 0.0, self = 0.0;
    std::size_t count = 0;
    for (std::size_t i = 0; i < flat_.size(); ++i) {
      if (flat_[i]->kind != kind) continue;
      ++count;
      total += static_cast<double>(flat_[i]->end_ns - flat_[i]->start_ns);
      self += static_cast<double>(self_[i]);
    }
    if (count == 0) continue;
    std::ostringstream out;
    out << std::fixed << std::setprecision(1) << "span " << span_name(kind)
        << ": n=" << count << " total_ms=" << total / 1e6
        << " self_ms=" << self / 1e6
        << " self_mean_us=" << self / 1e3 / static_cast<double>(count);
    lines.push_back(out.str());
  }
  return lines;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "perfbench: cannot write trace " << path << "\n";
    return;
  }
  for (std::size_t t = 0; t < logs_.size(); ++t) {
    for (const auto& span : logs_[t]) {
      out << "{\"name\":\"" << span_name(span.kind) << "\",\"id\":" << span.id
          << ",\"parent\":" << span.parent << ",\"request\":" << span.request
          << ",\"thread\":" << span.thread << ",\"start_ns\":" << span.start_ns
          << ",\"end_ns\":" << span.end_ns << "}\n";
    }
  }
}

// ---- models and the oracle --------------------------------------------------

std::string export_model(const ModelSpec& spec, const std::string& path) {
  ccq::models::ModelConfig mc;
  mc.num_classes = 10;
  mc.image_size = spec.image;
  mc.width_multiplier = spec.width;
  ccq::quant::QuantFactory factory{.policy = ccq::quant::Policy::kMinMax};
  auto model = ccq::models::make_simple_cnn(mc, factory,
                                            ccq::quant::BitLadder({8, 4, 2}));
  ccq::quant::LayerRegistry& registry = model.registry();
  for (std::size_t i = 0; i < registry.size(); ++i) {
    registry.set_ladder_pos(i, (i + spec.shift) % 3);
  }
  // One training-mode pass over fixed data sets the BN statistics and
  // activation ranges the integer plans fold in.
  ccq::Workspace ws;
  model.set_training(true);
  ccq::Tensor calib({8, 3, spec.image, spec.image});
  auto cd = calib.data();
  for (std::size_t i = 0; i < cd.size(); ++i) {
    cd[i] = static_cast<float>((i * 2654435761u >> 8) & 255u) / 255.0f;
  }
  model.forward(calib, ws);
  model.set_training(false);

  if (spec.rungs <= 1) {
    ccq::serve::export_artifact(model, path);
    return path;
  }
  // The trail a CCQ descent would have recorded for this allocation,
  // replayed into a multi-point artifact (loose size budget: the
  // workload wants the full rung span).
  ccq::core::RungTrail trail;
  for (std::size_t i = 0; i < registry.size(); ++i) {
    if (registry.unit(i).ladder_pos == 0) continue;
    ccq::core::TrailStep step;
    step.layer = i;
    step.ladder_pos = registry.unit(i).ladder_pos;
    step.val_acc = 0.9f;
    trail.push_back(step);
  }
  ccq::serve::MultiPointOptions options;
  options.rungs = spec.rungs;
  options.size_budget = 4.0;
  ccq::serve::export_artifact(
      ccq::serve::build_multipoint(model, trail, options), path);
  return path;
}

bool Oracle::matches(std::size_t rung, std::size_t sample,
                     const float* logits, std::size_t n) const {
  if (rung >= expected.size() || sample >= expected[rung].size()) return false;
  const auto& want = expected[rung][sample];
  return n == want.size() &&
         std::memcmp(logits, want.data(), n * sizeof(float)) == 0;
}

Oracle make_oracle(const std::string& artifact, std::size_t image,
                   std::size_t count, std::uint64_t seed) {
  const ccq::hw::IntegerNetwork net = ccq::serve::load_artifact(artifact);
  const std::size_t channels = net.plan(0).in_channels;
  ccq::Rng rng(seed);
  Oracle oracle;
  for (std::size_t i = 0; i < count; ++i) {
    ccq::Tensor x({channels, image, image});
    for (float& v : x.data()) v = static_cast<float>(rng.uniform());
    oracle.batch1.push_back(x.reshaped({1, channels, image, image}));
    oracle.samples.push_back(std::move(x));
  }
  ccq::Workspace ws;
  const ccq::ExecContext serial;
  oracle.expected.resize(net.rung_count());
  for (std::size_t r = 0; r < net.rung_count(); ++r) {
    for (const auto& x : oracle.batch1) {
      const ccq::Tensor y = net.forward(x, ws, serial, r);
      oracle.expected[r].emplace_back(y.data().begin(), y.data().end());
    }
  }
  return oracle;
}

std::string host_line(const ccq::hw::IntegerNetwork& net) {
  std::ostringstream out;
  out << "host: nproc=" << std::thread::hardware_concurrency()
      << " igemm_isa="
      << (ccq::igemm_packed_simd() ? "packed-simd" : "portable")
      << " kernels:";
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    const auto& plan = net.plan(i);
    if (plan.kind != ccq::hw::IntLayerPlan::Kind::kConv &&
        plan.kind != ccq::hw::IntLayerPlan::Kind::kLinear) {
      continue;
    }
    out << " " << plan.name << "=" << ccq::igemm_kernel_str(plan.igemm_kernel)
        << "/w" << plan.weight_bits;
  }
  return out.str();
}

// ---- the metric catalogue ---------------------------------------------------

const std::vector<MetricInfo>& end_to_end_metrics() {
  static const std::vector<MetricInfo> metrics = {
      {"setup_s", "s"},
      {"lat_p50_us", "us"},
      {"throughput_rps", "1/s", "higher"},
  };
  return metrics;
}

const std::vector<MetricInfo>& reported_metrics() {
  static const std::vector<MetricInfo> metrics = {
      {"lat_p99_us", "us"},
      {"lat_p99_us.low", "us"},
      {"lat_p99_us.high", "us"},
      {"hi_p99_us", "us"},
      {"slo_rps", "1/s", "higher"},
  };
  return metrics;
}

const std::vector<MetricInfo>& per_layer_metrics() {
  static const std::vector<MetricInfo> metrics = [] {
    std::vector<MetricInfo> m = {
        {"net.overhead_us", "us"},
        {"net.connect_us", "us"},
        {"protocol.encode_request_ns", "ns"},
        {"protocol.decode_request_ns", "ns"},
        {"protocol.encode_reply_ns", "ns"},
        {"protocol.decode_reply_ns", "ns"},
        {"protocol.request_bytes", "bytes"},
        {"protocol.reply_bytes", "bytes"},
        {"server.submit_ns.p50", "ns"},
        {"server.submit_ns.p99", "ns"},
        {"server.reply_wait_us.p50", "us"},
        {"server.reply_wait_us.p99", "us"},
        {"server.batch_mean", "count", "higher"},
        {"server.batch_fill", "ratio", "higher"},
        {"server.queue_depth.mean", "count"},
        {"server.queue_depth.max", "count"},
        {"server.rejected_frac", "ratio"},
        {"server.shed_frac", "ratio"},
        {"server.deadline_miss_frac", "ratio"},
        {"sla.share.heavy", "ratio", "higher"},
        {"sla.p99_us.low", "us"},
        {"sla.p99_us.normal", "us"},
        {"sla.p99_us.high", "us"},
        {"registry.resolve_ns", "ns"},
        {"registry.swap_ms", "ms"},
        {"registry.swap_p99_us", "us"},
        {"adaptive.switches", "count"},
        {"adaptive.deep_share", "ratio"},
        {"artifact.load_ms", "ms"},
        {"artifact.bytes", "bytes"},
        {"engine.per_sample_us.b1", "us"},
        {"engine.per_sample_us.b8", "us"},
        {"engine.per_sample_us.b32", "us"},
        {"engine.rung_us.r0", "us"},
        {"engine.rung_us.r1", "us"},
        {"engine.rung_us.r2", "us"},
        {"engine.unattributed_frac", "ratio"},
    };
    // The conv/linear plans of every served SimpleCNN.
    for (const char* plan : {"conv0", "conv1", "conv2", "conv3", "fc"}) {
      const std::string p = plan;
      m.push_back({"igemm." + p + ".b1.ns", "ns"});
      m.push_back({"igemm." + p + ".b8.ns", "ns"});
      m.push_back({"im2col." + p + ".b1.ns", "ns"});
      m.push_back({"im2col." + p + ".b8.ns", "ns"});
      m.push_back({"igemm." + p + ".macs", "count"});
      m.push_back({"igemm." + p + ".gmacs", "GMAC/s", "higher"});
      m.push_back({"hw." + p + ".energy_pj", "pJ"});
    }
    m.push_back({"alloc.heap_per_request", "count"});
    m.push_back({"alloc.float_per_request", "count"});
    m.push_back({"gen.late_p99_us", "us"});
    m.push_back({"trace.overhead.lat_p50_us", "us"});
    m.push_back({"trace.overhead.lat_p99_us", "us"});
    m.push_back({"trace.overhead.throughput_rps", "1/s"});
    return m;
  }();
  return metrics;
}

void report_trace_overhead(const Report& untraced, const Report& traced,
                           Report& report) {
  for (const char* m : {"lat_p50_us", "lat_p99_us"}) {
    report.metric(std::string("trace.overhead.") + m,
                  traced.value(m) - untraced.value(m), "us");
  }
  report.metric("trace.overhead.throughput_rps",
                untraced.value("throughput_rps") -
                    traced.value("throughput_rps"),
                "1/s");
}

void fill_unreached_layers(Report& report) {
  for (const auto& m : per_layer_metrics()) {
    if (!report.has(m.name)) report.metric(m.name, 0.0, m.unit);
  }
}

}  // namespace perfbench
