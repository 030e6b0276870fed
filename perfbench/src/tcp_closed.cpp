// tcp-closed: the path a client sees.  Two blocking TcpClient connections
// run a closed loop against TcpServer -> InferenceServer (2 workers,
// max_batch 8) serving the small mixed 8/4/2 SimpleCNN (16x16, width
// 0.25) loaded from a CCQA artifact.  The forward is a small part of a
// round trip, so the front end, the wire codec and the thread hand-offs
// dominate; batches stay at 2 or below, so an engine batching change
// should leave this workload flat.
//
// Requests cycle the low/normal/high service classes and carry the
// operating-point tag, so every reply names the version and rung that
// served it and is checked bit for bit against the oracle.
#include <atomic>
#include <filesystem>
#include <future>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "ccq/common/alloc.hpp"
#include "ccq/common/telemetry.hpp"
#include "ccq/serve/artifact.hpp"
#include "ccq/serve/net.hpp"
#include "ccq/serve/server.hpp"

namespace perfbench {
namespace {

namespace serve = ccq::serve;
namespace wire = ccq::serve::wire;

constexpr std::size_t kPool = 64;
constexpr std::size_t kClients = 2;
/// Set-ups before the measured loop, then kSetupsPerSlice more before
/// each of its kSlices slices in a --trace 0 run: spread over the run, the
/// set-up median samples the host's state over the run like every other
/// metric instead of at one instant.
constexpr std::size_t kSetupReps = 5;
constexpr std::size_t kSetupsPerSlice = 20;
constexpr std::size_t kSlices = 5;
constexpr const char* kModel = "small";
/// throughput_rps is the median over windows of this length of the
/// replies completed in each.  Host stalls come a few times a second:
/// most windows this short hold none, so the median window shows the
/// loop's own rate instead of how often the host stalled.
constexpr std::uint64_t kRateWindowNs = 20'000'000;

serve::ServeConfig serve_config() {
  serve::ServeConfig sc;
  sc.workers = 2;
  return sc;
}

serve::ModelConfig model_config() {
  serve::ModelConfig mc;
  mc.max_batch = 8;
  mc.max_delay_us = 200;
  mc.queue_capacity = 64;
  return mc;
}

/// The serving stack one set-up builds.  Destruction stops the front end
/// before the server it borrows.
struct Stack {
  std::unique_ptr<serve::InferenceServer> server;
  std::unique_ptr<serve::TcpServer> front;
  ~Stack() {
    if (front) front->stop();
    if (server) server->shutdown();
  }
};

/// Replies and their latencies, per client thread and then per loop.
struct Tally {
  Samples all_us, class_us[3];
  std::uint64_t attempted = 0, ok = 0, failed = 0, mismatches = 0;
  std::uint64_t rejected = 0, shed = 0, deadline = 0;

  void merge(const Tally& t) {
    all_us.append(t.all_us);
    for (int k = 0; k < 3; ++k) class_us[k].append(t.class_us[k]);
    attempted += t.attempted;
    ok += t.ok;
    failed += t.failed;
    mismatches += t.mismatches;
    rejected += t.rejected;
    shed += t.shed;
    deadline += t.deadline;
  }
  /// Failed request: note why (from the server's error text, which keeps
  /// the admission error's message across the wire).
  void fail(std::size_t cls, const wire::InferReply* reply) {
    ++failed;
    all_us.add(kMissed);
    class_us[cls].add(kMissed);
    if (reply == nullptr) return;
    if (reply->ok) {
      ++mismatches;
    } else if (reply->error.find("full") != std::string::npos) {
      ++rejected;
    } else if (reply->error.find("shed") != std::string::npos) {
      ++shed;
    } else if (reply->error.find("deadline") != std::string::npos) {
      ++deadline;
    }
  }
};

/// One closed loop's outcome, summed over its slices.
struct Phase : Tally {
  Samples window_rps;  ///< replies/s in each kRateWindowNs window
  std::uint64_t heap = 0, floats = 0;
  Samples queue_depth;
  std::uint64_t requests_counter = 0, batches_counter = 0;
};

}  // namespace

void run_tcp_closed(const RunOptions& o, Report& report) {
  const ModelSpec spec{.image = 16, .width = 0.25f, .shift = 0, .rungs = 1};
  const std::string path = export_model(spec, o.work_dir + "/tcp.ccqa");
  const Oracle oracle = make_oracle(path, spec.image, kPool, o.seed);

  // Frames per (class, sample), built once: the generator sends the same
  // request objects again and again and allocates nothing per request.
  std::vector<wire::InferRequest> frames[3];
  for (std::size_t p = 0; p < 3; ++p) {
    for (const auto& x : oracle.samples) {
      wire::InferRequest req;
      req.model = kModel;
      req.channels = x.dim(0);
      req.height = x.dim(1);
      req.width = x.dim(2);
      req.data.assign(x.data().begin(), x.data().end());
      req.has_point = true;
      req.point = -1;
      req.has_priority = true;
      req.priority = static_cast<std::uint8_t>(p);
      frames[p].push_back(std::move(req));
    }
  }
  auto check = [&](const wire::InferReply& reply, std::size_t sample) {
    return reply.ok && reply.version == 1 && reply.has_rung &&
           oracle.matches(reply.rung, sample, reply.logits.data(),
                          reply.logits.size());
  };

  // One set-up: artifact load, server start, TCP bind, connect, first
  // correct reply.  The median over all set-ups is reported.
  std::vector<double> setup_s, load_ms, connect_us;
  auto set_up = [&] {
    auto next = std::make_unique<Stack>();
    const std::uint64_t t0 = now_ns();
    ccq::hw::IntegerNetwork net = serve::load_artifact(path);
    const std::uint64_t t_load = now_ns();
    next->server = std::make_unique<serve::InferenceServer>(serve_config());
    next->server->load(kModel, std::move(net), model_config());
    next->front = std::make_unique<serve::TcpServer>(*next->server, 0);
    const std::uint64_t tc0 = now_ns();
    serve::TcpClient client("127.0.0.1", next->front->port());
    const std::uint64_t tc1 = now_ns();
    const bool ok = check(client.infer(frames[1][0]), 0);
    const std::uint64_t t1 = now_ns();
    ++report.attempted;
    if (!ok) {
      ++report.failed;
      ++report.mismatches;
    }
    setup_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    load_ms.push_back(static_cast<double>(t_load - t0) / 1e6);
    connect_us.push_back(static_cast<double>(tc1 - tc0) / 1e3);
    client.close();
    return next;
  };
  std::unique_ptr<Stack> stack;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    stack.reset();
    stack = set_up();
  }
  const std::uint16_t port = stack->front->port();
  serve::InferenceServer& server = *stack->server;
  report.line(host_line(server.resolve(kModel).network()));

  Tracer tracer(kClients + 1, 1 << 17);
  std::atomic<std::uint64_t> next_request{0};

  // One slice of the closed TCP loop, added to `phase`.  Traced, a third
  // generator thread samples the server's queue depth.
  auto tcp_slice = [&](double seconds, bool traced, Phase& phase) {
    constexpr std::size_t clients = kClients;
    std::vector<Tally> stats(clients);
    std::vector<std::unique_ptr<serve::TcpClient>> conns;
    for (std::size_t c = 0; c < clients; ++c) {
      conns.push_back(std::make_unique<serve::TcpClient>("127.0.0.1", port));
    }
    for (auto& s : stats) {
      s.all_us.reserve(1 << 17);
      for (auto& cs : s.class_us) cs.reserve(1 << 16);
    }
    tracer.set_enabled(traced);
    const std::uint64_t req0 = serve_counter("serve.small.requests");
    const std::uint64_t bat0 = serve_counter("serve.small.batches");
    const std::uint64_t heap0 = heap_allocs();
    const std::uint64_t float0 = ccq::alloc_stats::count();
    std::atomic<bool> stop{false};
    const std::uint64_t start = now_ns();
    const std::uint64_t end = start + static_cast<std::uint64_t>(seconds * 1e9);
    const std::size_t windows = (end - start) / kRateWindowNs;
    std::vector<std::vector<std::uint32_t>> window_ok(
        clients, std::vector<std::uint32_t>(windows + 1, 0));
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        Tally& s = stats[c];
        ccq::Rng rng(o.seed * 1000003ULL + c * 7919ULL + clients);
        std::size_t i = c;
        while (now_ns() < end) {
          const std::size_t cls = i++ % 3;
          const std::size_t sample = rng.uniform_int(kPool);
          const std::uint64_t id = next_request.fetch_add(1);
          ++s.attempted;
          const std::uint64_t t0 = now_ns();
          try {
            const wire::InferReply reply = conns[c]->infer(frames[cls][sample]);
            const std::uint64_t t1 = now_ns();
            tracer.record(1 + c, SpanKind::kTcpRtt, id, t0, t1);
            const double us = static_cast<double>(t1 - t0) / 1e3;
            if (check(reply, sample)) {
              ++s.ok;
              ++window_ok[c][std::min<std::size_t>(
                  (t1 - start) / kRateWindowNs, windows)];
              s.all_us.add(us);
              s.class_us[cls].add(us);
            } else {
              s.fail(cls, &reply);
            }
          } catch (const std::exception&) {
            s.fail(cls, nullptr);
            break;  // a broken connection ends this client
          }
        }
      });
    }
    if (traced) {
      threads.emplace_back([&] {
        while (!stop.load(std::memory_order_relaxed)) {
          phase.queue_depth.add(static_cast<double>(server.queue_depth()));
          std::this_thread::sleep_for(std::chrono::microseconds(250));
        }
      });
    }
    for (std::size_t c = 0; c < clients; ++c) threads[c].join();
    stop.store(true);
    if (traced) threads.back().join();
    phase.heap += heap_allocs() - heap0;
    phase.floats += ccq::alloc_stats::count() - float0;
    phase.requests_counter += serve_counter("serve.small.requests") - req0;
    phase.batches_counter += serve_counter("serve.small.batches") - bat0;
    tracer.set_enabled(false);
    for (const auto& s : stats) phase.merge(s);
    // Whole windows only: the last, partial one is dropped.
    for (std::size_t w = 0; w < windows; ++w) {
      std::uint32_t ok = 0;
      for (const auto& counts : window_ok) ok += counts[w];
      phase.window_rps.add(static_cast<double>(ok) / (kRateWindowNs / 1e9));
    }
  };

  // The whole closed loop, slice by slice; an untraced run's set-ups go
  // between the slices.
  auto closed_loop = [&](double seconds, bool traced) {
    Phase phase;
    for (std::size_t slice = 0; slice < kSlices; ++slice) {
      for (std::size_t k = 0; !o.trace && k < kSetupsPerSlice; ++k) set_up();
      tcp_slice(seconds / kSlices, traced, phase);
    }
    report.attempted += phase.attempted;
    report.failed += phase.failed;
    report.mismatches += phase.mismatches;
    return phase;
  };
  auto end_to_end = [&](const Phase& p, Report& out) {
    out.metric("lat_p50_us", p.all_us.median(), "us");
    out.metric("throughput_rps", p.window_rps.median(), "1/s");
    out.metric("lat_p99_us", p99(p.all_us), "us");
  };
  auto describe = [&](const Phase& p, const char* label) {
    report.line(std::string(label) + " rtt us, 2 connections: " +
                p.all_us.summary() + "; high class " +
                p.class_us[2].summary());
  };

  if (!o.trace) {
    const Phase main = closed_loop(o.seconds * 0.9, false);
    report.metric("setup_s", median_of(setup_s), "s");
    end_to_end(main, report);
    describe(main, "untraced");
    return;
  }

  // Traced run: untraced loop, traced loop (spans and the program's own
  // counters on), then the layer probes.
  report.metric("setup_s", median_of(setup_s), "s");
  const Phase main = closed_loop(o.seconds * 0.28, false);
  ccq::telemetry::set_metrics_enabled(true);
  const Phase tmain = closed_loop(o.seconds * 0.28, true);
  describe(main, "untraced");
  describe(tmain, "traced");
  Report plain, spans;
  end_to_end(main, plain);
  end_to_end(tmain, spans);
  report_trace_overhead(plain, spans, report);

  // Twin in-process closed loop: same clients, workers and model, no
  // socket.  Its round trip against the TCP one is the network's cost.
  Samples inproc_us;
  {
    std::vector<Samples> per(kClients);
    std::atomic<std::uint64_t> failures{0};
    tracer.set_enabled(true);
    const std::uint64_t end =
        now_ns() + static_cast<std::uint64_t>(o.seconds * 0.14 * 1e9);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        per[c].reserve(1 << 17);
        ccq::Rng rng(o.seed * 31ULL + c);
        ccq::Tensor out({10});
        std::size_t i = c;
        while (now_ns() < end) {
          const std::size_t cls = i++ % 3;
          const std::size_t sample = rng.uniform_int(kPool);
          const std::uint64_t id = next_request.fetch_add(1);
          std::int32_t rung = -1;
          serve::SubmitOptions opts;
          opts.priority = static_cast<serve::Priority>(cls);
          opts.served_rung = &rung;
          const std::uint64_t t0 = now_ns();
          try {
            const serve::ModelHandle handle = server.resolve(kModel);
            const std::uint64_t t1 = now_ns();
            std::future<void> done =
                server.submit(handle, oracle.samples[sample], out, opts);
            const std::uint64_t t2 = now_ns();
            done.get();
            const std::uint64_t t3 = now_ns();
            tracer.record(1 + c, SpanKind::kResolve, id, t0, t1,
                          SpanKind::kRequest);
            tracer.record(1 + c, SpanKind::kSubmit, id, t1, t2,
                          SpanKind::kRequest);
            tracer.record(1 + c, SpanKind::kReplyWait, id, t2, t3,
                          SpanKind::kRequest);
            tracer.record(1 + c, SpanKind::kRequest, id, t0, t3);
            if (rung < 0 || !oracle.matches(static_cast<std::size_t>(rung),
                                            sample, out.data().data(),
                                            out.numel())) {
              failures.fetch_add(1);
            }
            per[c].add(static_cast<double>(t3 - t0) / 1e3);
          } catch (const std::exception&) {
            failures.fetch_add(1);
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    tracer.set_enabled(false);
    for (const auto& s : per) inproc_us.append(s);
    report.attempted += inproc_us.size();
    report.failed += failures.load();
    report.mismatches += failures.load();
    report.line("in-process twin rtt us, 2 callers: " + inproc_us.summary());
  }

  report.metric("net.overhead_us",
                tmain.all_us.median() - inproc_us.median(), "us");
  report.metric("net.connect_us", median_of(connect_us), "us");

  // serve/protocol: the codec on this workload's own frames.
  {
    std::vector<std::string> bodies;
    std::vector<wire::InferReply> replies;
    for (std::size_t s = 0; s < kPool; ++s) {
      bodies.push_back(wire::encode_request(frames[s % 3][s]));
      wire::InferReply r;
      r.ok = true;
      r.version = 1;
      r.logits = oracle.expected[0][s];
      r.has_rung = true;
      r.rung = 0;
      replies.push_back(std::move(r));
    }
    std::vector<std::string> reply_bodies;
    for (const auto& r : replies) reply_bodies.push_back(wire::encode_reply(r));
    Samples enc_req, dec_req, enc_rep, dec_rep;
    const std::uint64_t end =
        now_ns() + static_cast<std::uint64_t>(o.seconds * 0.04 * 1e9);
    // Each sample is the mean of 16 back-to-back calls; the checksum keeps
    // the results alive.
    constexpr int kInner = 16;
    std::size_t checksum = 0;
    auto time_calls = [&](Samples& out, auto&& call) {
      const std::uint64_t t0 = now_ns();
      for (int k = 0; k < kInner; ++k) checksum += call();
      out.add(static_cast<double>(now_ns() - t0) / kInner);
    };
    while (now_ns() < end) {
      for (std::size_t s = 0; s < kPool; s += 8) {
        const wire::InferRequest& frame = frames[s % 3][s];
        time_calls(enc_req, [&] { return wire::encode_request(frame).size(); });
        time_calls(dec_req,
                   [&] { return wire::decode_request(bodies[s]).data.size(); });
        time_calls(enc_rep,
                   [&] { return wire::encode_reply(replies[s]).size(); });
        time_calls(dec_rep, [&] {
          return wire::decode_reply(reply_bodies[s]).logits.size();
        });
      }
    }
    report.metric("protocol.encode_request_ns", enc_req.median(), "ns");
    report.metric("protocol.decode_request_ns", dec_req.median(), "ns");
    report.metric("protocol.encode_reply_ns", enc_rep.median(), "ns");
    report.metric("protocol.decode_reply_ns", dec_rep.median(), "ns");
    // Frame bytes on the wire: the 4-byte length prefix plus the body.
    report.metric("protocol.request_bytes",
                  static_cast<double>(bodies[0].size() + 4), "bytes");
    report.metric("protocol.reply_bytes",
                  static_cast<double>(reply_bodies[0].size() + 4), "bytes");
    report.line("codec checksum " + std::to_string(checksum % 997));
  }

  // serve/server and serve/registry, from the twin loop's spans.
  const Samples submit_ns = tracer.self_ns(SpanKind::kSubmit);
  const Samples wait_ns = tracer.self_ns(SpanKind::kReplyWait);
  report.metric("server.submit_ns.p50", submit_ns.median(), "ns");
  report.metric("server.submit_ns.p99", p99(submit_ns), "ns");
  report.metric("server.reply_wait_us.p50", wait_ns.median() / 1e3, "us");
  report.metric("server.reply_wait_us.p99", p99(wait_ns) / 1e3, "us");
  report.metric("registry.resolve_ns",
                tracer.self_ns(SpanKind::kResolve).median(), "ns");
  const double batch_mean =
      ratio(tmain.requests_counter, tmain.batches_counter);
  report.metric("server.batch_mean", batch_mean, "count");
  report.metric("server.batch_fill",
                ratio(batch_mean, model_config().max_batch), "ratio");
  report.metric("server.queue_depth.mean", tmain.queue_depth.mean(), "count");
  report.metric("server.queue_depth.max", tmain.queue_depth.max(), "count");
  const std::uint64_t attempted = main.attempted + tmain.attempted;
  auto frac = [&](std::uint64_t n) { return ratio(n, attempted); };
  report.metric("server.rejected_frac", frac(main.rejected + tmain.rejected),
                "ratio");
  report.metric("server.shed_frac", frac(main.shed + tmain.shed), "ratio");
  report.metric("server.deadline_miss_frac",
                frac(main.deadline + tmain.deadline), "ratio");
  report.metric("sla.p99_us.low", p99(tmain.class_us[0]), "us");
  report.metric("sla.p99_us.normal", p99(tmain.class_us[1]), "us");
  report.metric("sla.p99_us.high", p99(tmain.class_us[2]), "us");
  report.metric("artifact.load_ms", median_of(load_ms), "ms");
  report.metric("artifact.bytes",
                static_cast<double>(std::filesystem::file_size(path)), "bytes");
  report.metric("alloc.heap_per_request", ratio(main.heap, main.ok), "count");
  report.metric("alloc.float_per_request", ratio(main.floats, main.ok),
                "count");

  tracer.set_enabled(true);
  probe_engine(server.resolve(kModel).network(), spec.image, o.seconds * 0.2,
               o.seed, tracer, report);
  tracer.set_enabled(false);
  for (const auto& line : tracer.summary()) report.line(line);
  tracer.write(o.work_dir + "/trace-tcp-closed.jsonl");
}

}  // namespace perfbench
