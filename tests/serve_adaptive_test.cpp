// Adaptive-precision serving tests: the load-driven operating-point
// controller (hysteresis, dwell, latency trigger, pinning), the server
// datapath it steers (rung switches atomic between batches, per-request
// overrides, bit-identity of every reply to `forward_reference` at the
// rung that served it), the tagged wire-protocol extension, and the
// harness's scripted load ramp.
//
// Labelled `adaptive` and run on both CI legs plus the TSan quick tier.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <future>
#include <string>
#include <vector>

#include "ccq/common/telemetry.hpp"
#include "ccq/core/trail.hpp"
#include "ccq/models/simple.hpp"
#include "ccq/serve/adaptive.hpp"
#include "ccq/serve/artifact.hpp"
#include "ccq/serve/harness.hpp"
#include "ccq/serve/net.hpp"
#include "serve_fixtures.hpp"

namespace ccq::serve {
namespace {

namespace fs = std::filesystem;

/// The trail that would have produced make_mixed_model's allocation —
/// with the model, the inputs to `build_multipoint`.
core::RungTrail trail_for(const models::QuantModel& model) {
  const quant::LayerRegistry& registry = model.registry();
  core::RungTrail trail;
  for (std::size_t i = 0; i < registry.size(); ++i) {
    if (registry.unit(i).ladder_pos == 0) continue;
    core::TrailStep step;
    step.layer = i;
    step.ladder_pos = registry.unit(i).ladder_pos;
    step.val_acc = 0.9f;
    trail.push_back(step);
  }
  return trail;
}

/// A 3-rung network (loose budget keeps the full candidate span).
hw::IntegerNetwork make_multipoint() {
  auto model = make_mixed_model();
  MultiPointOptions options;
  options.size_budget = 4.0;
  return build_multipoint(model, trail_for(model), options);
}

// ---- the controller, in isolation ------------------------------------------

TEST(OperatingPointControllerTest, SingleRungIsInert) {
  OperatingPointController inert;
  EXPECT_EQ(inert.decide(1000, 0), 0u);

  OperatingPointController one({}, 1, -1, -1, -1);
  EXPECT_EQ(one.decide(1000, 0), 0u);
  EXPECT_EQ(one.decide(0, 0), 0u);
}

TEST(OperatingPointControllerTest, HysteresisStepsOneRungPerDecision) {
  OperatingPointPolicy policy;
  policy.degrade_depth = 8;
  policy.restore_depth = 2;
  OperatingPointController c(policy, 3, -1, -1, -1);

  EXPECT_EQ(c.decide(8, 0), 1u);   // at the degrade threshold
  EXPECT_EQ(c.decide(20, 0), 2u);  // one step per call, however deep
  EXPECT_EQ(c.decide(50, 0), 2u);  // clamped at the cheapest rung
  EXPECT_EQ(c.decide(5, 0), 2u);   // inside the hysteresis band: hold
  EXPECT_EQ(c.decide(2, 0), 1u);   // at the restore threshold
  EXPECT_EQ(c.decide(0, 0), 0u);
  EXPECT_EQ(c.decide(0, 0), 0u);   // already at full quality
  EXPECT_EQ(c.current(), 0u);
}

TEST(OperatingPointControllerTest, DwellHoldsBetweenSwitches) {
  OperatingPointPolicy policy;
  policy.degrade_depth = 8;
  policy.restore_depth = 2;
  policy.min_dwell_us = 1000;  // 1 ms
  OperatingPointController c(policy, 3, -1, -1, -1);

  EXPECT_EQ(c.decide(8, 1000), 1u);          // first switch: no dwell yet
  EXPECT_EQ(c.decide(8, 1000 + 999'999), 1u);    // inside the dwell window
  EXPECT_EQ(c.decide(8, 1000 + 1'000'000), 2u);  // window over
}

TEST(OperatingPointControllerTest, FixedRungPinsTheModel) {
  OperatingPointPolicy policy;
  policy.fixed_rung = 2;
  OperatingPointController c(policy, 3, -1, -1, -1);
  EXPECT_EQ(c.current(), 2u);
  EXPECT_EQ(c.decide(0, 0), 2u);
  EXPECT_EQ(c.decide(1000, 0), 2u);
}

TEST(OperatingPointControllerTest, InvalidPoliciesRejected) {
  OperatingPointPolicy inverted;
  inverted.degrade_depth = 2;
  inverted.restore_depth = 8;
  EXPECT_NE(error_message([&] {
              OperatingPointController c(inverted, 3, -1, -1, -1);
            }).find("hysteresis"),
            std::string::npos);
  // Single-rung models skip the check: a single-point (one-rung)
  // artifact loads under any policy.
  EXPECT_EQ(OperatingPointController(inverted, 1, -1, -1, -1).decide(0, 0),
            0u);

  OperatingPointPolicy pinned;
  pinned.fixed_rung = 3;
  const std::string message = error_message(
      [&] { OperatingPointController c(pinned, 3, -1, -1, -1); });
  EXPECT_NE(message.find("fixed_rung 3"), std::string::npos) << message;
  EXPECT_NE(message.find("3 rung(s)"), std::string::npos) << message;
}

TEST(OperatingPointControllerTest, LatencyTriggerUsesTheDeltaWindow) {
  MetricsGuard metrics;
  const int timer = telemetry::named_metric(telemetry::NamedKind::kTimer,
                                            "test.adaptive.latency");
  ASSERT_GE(timer, 0);

  OperatingPointPolicy policy;
  policy.degrade_depth = 1000;  // depth never triggers in this test
  policy.restore_depth = 2;
  policy.degrade_p99_us = 100;
  OperatingPointController c(policy, 3, timer, -1, -1);

  // Quiet decision to snapshot whatever the series already holds.
  EXPECT_EQ(c.decide(10, 0), 0u);

  // A burst of 1 ms requests: p99 over the new window is 10× the
  // threshold, so the next decision degrades even at depth 0.
  for (int i = 0; i < 10; ++i) {
    telemetry::record_named_duration(timer, 1'000'000);
  }
  EXPECT_EQ(c.decide(0, 0), 1u);

  // No new samples since that decision: the spike is out of the window,
  // and the quiet queue restores — a historical spike cannot pin the
  // model degraded.
  EXPECT_EQ(c.decide(0, 0), 0u);
}

// ---- the server datapath ---------------------------------------------------

TEST(AdaptiveServeTest, DegradesUnderQueuePressureAndRestores) {
  MetricsGuard metrics;
  const std::string artifact = temp_path("ccq_serve_adaptive_pressure.ccqa");
  export_artifact(make_multipoint(), artifact);
  const hw::IntegerNetwork reference = load_artifact(artifact);
  const Tensor x = make_inputs(17);
  Workspace ref_ws;
  std::vector<Tensor> per_rung;
  for (std::size_t r = 0; r < reference.rung_count(); ++r) {
    per_rung.push_back(reference.forward_reference(x, ref_ws, ExecContext(), r));
  }

  // One worker, a 16-deep flush threshold and a long delay make the
  // schedule deterministic: 17 quick submissions queue up, the first
  // flush fires at depth ≥ 16 (= degrade_depth, so the controller steps
  // to rung 1 and the whole batch runs there), and the leftover request
  // flushes on the delay timer at depth 1 ≤ restore_depth — restoring
  // rung 0.
  ServeConfig sc;
  sc.workers = 1;
  InferenceServer server(sc);
  ModelConfig mc;
  mc.max_batch = 16;
  mc.max_delay_us = 100'000;
  mc.queue_capacity = 64;
  mc.adaptive.degrade_depth = 16;
  mc.adaptive.restore_depth = 2;
  ModelHandle handle = server.load("adaptive-pressure", artifact, mc);

  const std::size_t n = x.dim(0);
  std::vector<Tensor> samples;
  std::vector<Tensor> outputs(n);
  std::vector<std::int32_t> rungs(n, -1);
  for (std::size_t i = 0; i < n; ++i) {
    Tensor sample({x.dim(1), x.dim(2), x.dim(3)});
    const std::size_t numel = sample.numel();
    const auto src = x.data().subspan(i * numel, numel);
    std::copy(src.begin(), src.end(), sample.data().begin());
    samples.push_back(std::move(sample));
  }
  std::vector<std::future<void>> futures;
  for (std::size_t i = 0; i < n; ++i) {
    SubmitOptions options;
    options.served_rung = &rungs[i];
    futures.push_back(server.submit(handle, samples[i], outputs[i], options));
  }
  for (auto& f : futures) f.get();

  std::size_t at_one = 0, at_zero = 0;
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_GE(rungs[i], 0) << "sample " << i;
    ASSERT_LT(rungs[i], 3) << "sample " << i;
    at_one += rungs[i] == 1;
    at_zero += rungs[i] == 0;
    // Every reply is bit-identical to the reference at the rung that
    // served it — whatever the controller chose.
    EXPECT_EQ(max_row_diff(outputs[i],
                           per_rung[static_cast<std::size_t>(rungs[i])], i),
              0.0f)
        << "sample " << i << " rung " << rungs[i];
  }
  EXPECT_EQ(at_one, 16u);  // the pressure batch, degraded
  EXPECT_EQ(at_zero, 1u);  // the straggler, restored

  // The observables: gauge back at 0, two switches recorded.
  const int gauge = telemetry::find_named_metric(
      telemetry::NamedKind::kGauge, "serve.adaptive-pressure.rung");
  const int switches = telemetry::find_named_metric(
      telemetry::NamedKind::kCounter, "serve.adaptive-pressure.rung_switches");
  ASSERT_GE(gauge, 0);
  ASSERT_GE(switches, 0);
  EXPECT_EQ(telemetry::named_gauge_value(gauge), 0.0);
  EXPECT_EQ(telemetry::named_counter_value(switches), 2u);

  server.shutdown();
}

TEST(AdaptiveServeTest, ExplicitOverridesServeExactlyThatRung) {
  const std::string artifact = temp_path("ccq_serve_adaptive_override.ccqa");
  export_artifact(make_multipoint(), artifact);
  const hw::IntegerNetwork reference = load_artifact(artifact);
  const Tensor x = make_inputs(24);
  Workspace ref_ws;
  std::vector<Tensor> per_rung;
  for (std::size_t r = 0; r < reference.rung_count(); ++r) {
    per_rung.push_back(reference.forward_reference(x, ref_ws, ExecContext(), r));
  }

  ServeConfig sc;
  sc.workers = 2;
  InferenceServer server(sc);
  ModelConfig mc;
  mc.max_batch = 8;
  mc.max_delay_us = 200;
  ModelHandle handle = server.load("adaptive-override", artifact, mc);

  // Interleaved overrides 0/1/2: batches must never mix rungs, which the
  // bit-identity of every reply to its *own* rung's reference makes
  // observable.
  const std::size_t n = x.dim(0);
  std::vector<Tensor> samples;
  std::vector<Tensor> outputs(n);
  std::vector<std::int32_t> rungs(n, -1);
  for (std::size_t i = 0; i < n; ++i) {
    Tensor sample({x.dim(1), x.dim(2), x.dim(3)});
    const std::size_t numel = sample.numel();
    const auto src = x.data().subspan(i * numel, numel);
    std::copy(src.begin(), src.end(), sample.data().begin());
    samples.push_back(std::move(sample));
  }
  std::vector<std::future<void>> futures;
  for (std::size_t i = 0; i < n; ++i) {
    SubmitOptions options;
    options.rung = static_cast<std::int32_t>(i % 3);
    options.served_rung = &rungs[i];
    futures.push_back(server.submit(handle, samples[i], outputs[i], options));
  }
  for (auto& f : futures) f.get();

  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(rungs[i], static_cast<std::int32_t>(i % 3)) << "sample " << i;
    EXPECT_EQ(max_row_diff(outputs[i], per_rung[i % 3], i), 0.0f)
        << "sample " << i;
  }
  server.shutdown();
}

TEST(AdaptiveServeTest, OutOfRangeOverrideRejectedAtAdmission) {
  const std::string artifact = temp_path("ccq_serve_adaptive_range.ccqa");
  export_artifact(make_multipoint(), artifact);
  InferenceServer server;
  ModelHandle handle = server.load("adaptive-range", artifact, {});

  const Tensor sample({3, 8, 8});
  Tensor out;
  SubmitOptions options;
  options.rung = 5;
  const std::string message = error_message(
      [&] { server.submit(handle, sample, out, options); });
  EXPECT_NE(message.find("operating-point override 5"), std::string::npos)
      << message;
  EXPECT_NE(message.find("3 rung(s)"), std::string::npos) << message;

  // A single-point (one-rung) model rejects any non-default override.
  auto model = make_mixed_model();
  const std::string single = temp_path("ccq_serve_adaptive_single.ccqa");
  export_artifact(model, single);
  ModelHandle flat = server.load("adaptive-flat", single, {});
  options.rung = 1;
  EXPECT_NE(error_message([&] {
              server.submit(flat, sample, out, options);
            }).find("1 rung(s)"),
            std::string::npos);
  server.shutdown();
}

// ---- the wire protocol extension -------------------------------------------

TEST(AdaptiveWireTest, PointTagRoundTripsAndUnknownTagsRejected) {
  wire::InferRequest request;
  request.model = "m";
  request.channels = request.height = request.width = 1;
  request.data = {0.5f};
  request.has_point = true;
  request.point = 2;
  const std::string tagged = wire::encode_request(request);
  const wire::InferRequest back = wire::decode_request(tagged);
  EXPECT_TRUE(back.has_point);
  EXPECT_EQ(back.point, 2);

  // Untagged encoding is byte-identical to the previous revision: the
  // tag adds bytes only when present.
  request.has_point = false;
  const std::string untagged = wire::encode_request(request);
  EXPECT_LT(untagged.size(), tagged.size());
  EXPECT_FALSE(wire::decode_request(untagged).has_point);

  // Unknown and duplicate trailing tags are rejected, not ignored.
  EXPECT_THROW(wire::decode_request(untagged + std::string(1, '\x07')),
               wire::ProtocolError);
  const std::string doubled =
      tagged + tagged.substr(untagged.size());  // the tag bytes, twice
  EXPECT_THROW(wire::decode_request(doubled), wire::ProtocolError);

  wire::InferReply reply;
  reply.ok = true;
  reply.version = 1;
  reply.logits = {1.0f};
  reply.has_rung = true;
  reply.rung = 2;
  const wire::InferReply reply_back =
      wire::decode_reply(wire::encode_reply(reply));
  EXPECT_TRUE(reply_back.has_rung);
  EXPECT_EQ(reply_back.rung, 2u);
  reply.has_rung = false;
  EXPECT_FALSE(wire::decode_reply(wire::encode_reply(reply)).has_rung);
}

TEST(AdaptiveWireTest, TcpPointOverrideServesThatRung) {
  const std::string artifact = temp_path("ccq_serve_adaptive_tcp.ccqa");
  export_artifact(make_multipoint(), artifact);
  const hw::IntegerNetwork reference = load_artifact(artifact);
  const Tensor x = make_inputs(4);
  Workspace ref_ws;
  std::vector<Tensor> per_rung;
  for (std::size_t r = 0; r < reference.rung_count(); ++r) {
    per_rung.push_back(reference.forward_reference(x, ref_ws, ExecContext(), r));
  }

  InferenceServer server;
  ModelConfig mc;
  mc.max_batch = 1;
  server.load("tcp-adaptive", artifact, mc);
  TcpServer front(server, 0);
  TcpClient client("127.0.0.1", front.port());

  const std::size_t numel = x.dim(1) * x.dim(2) * x.dim(3);
  auto request_for = [&](std::size_t i) {
    wire::InferRequest request;
    request.model = "tcp-adaptive";
    request.channels = x.dim(1);
    request.height = x.dim(2);
    request.width = x.dim(3);
    const auto src = x.data().subspan(i * numel, numel);
    request.data.assign(src.begin(), src.end());
    return request;
  };

  // Tagged request with an explicit rung: the reply echoes it and the
  // logits match that rung exactly.
  for (std::int32_t rung = 0; rung < 3; ++rung) {
    wire::InferRequest request = request_for(static_cast<std::size_t>(rung));
    request.has_point = true;
    request.point = rung;
    const wire::InferReply reply = client.infer(request);
    ASSERT_TRUE(reply.ok) << reply.error;
    ASSERT_TRUE(reply.has_rung);
    EXPECT_EQ(reply.rung, static_cast<std::uint32_t>(rung));
    const Tensor& expected = per_rung[static_cast<std::size_t>(rung)];
    ASSERT_EQ(reply.logits.size(), expected.dim(1));
    for (std::size_t k = 0; k < reply.logits.size(); ++k) {
      EXPECT_EQ(reply.logits[k], expected(static_cast<std::size_t>(rung), k));
    }
  }

  // A tagged request with point −1 delegates to the controller but still
  // learns which rung served it.
  wire::InferRequest delegated = request_for(3);
  delegated.has_point = true;
  delegated.point = -1;
  const wire::InferReply reply = client.infer(delegated);
  ASSERT_TRUE(reply.ok) << reply.error;
  ASSERT_TRUE(reply.has_rung);
  EXPECT_LT(reply.rung, 3u);

  // An untagged (old-client) request is served without a rung echo.
  const wire::InferReply legacy = client.infer(request_for(3));
  ASSERT_TRUE(legacy.ok) << legacy.error;
  EXPECT_FALSE(legacy.has_rung);

  // An out-of-range point comes back as an error reply naming the rung
  // count, and the connection survives.
  wire::InferRequest bad = request_for(0);
  bad.has_point = true;
  bad.point = 7;
  const wire::InferReply rejected = client.infer(bad);
  EXPECT_FALSE(rejected.ok);
  EXPECT_NE(rejected.error.find("3 rung(s)"), std::string::npos)
      << rejected.error;
  EXPECT_TRUE(client.infer(request_for(0)).ok);
}

// ---- the scripted load ramp ------------------------------------------------

TEST(AdaptiveHarnessTest, RampScheduleIsValidated) {
  hw::IntegerNetwork net = make_multipoint();
  InferenceServer server;
  server.load("ramp-check", std::move(net), {});
  ServeHarness harness(server, "ramp-check");
  const Tensor x = make_inputs(8);

  HarnessOptions options;
  options.ramp = {{1000.0, 4}, {1000.0, 2}};  // sums to 6, batch holds 8
  EXPECT_NE(error_message([&] { harness.run(x, options); })
                .find("ramp stages offer 6"),
            std::string::npos);

  options.ramp = {{0.0, 8}};
  EXPECT_NE(error_message([&] { harness.run(x, options); })
                .find("positive rps"),
            std::string::npos);
  server.shutdown();
}

TEST(AdaptiveHarnessTest, RampRunReportsServingRungs) {
  const std::string artifact = temp_path("ccq_serve_adaptive_ramp.ccqa");
  export_artifact(make_multipoint(), artifact);
  const hw::IntegerNetwork reference = load_artifact(artifact);
  const Tensor x = make_inputs(30);
  Workspace ref_ws;
  std::vector<Tensor> per_rung;
  for (std::size_t r = 0; r < reference.rung_count(); ++r) {
    per_rung.push_back(reference.forward_reference(x, ref_ws, ExecContext(), r));
  }

  InferenceServer server;
  ModelConfig mc;
  mc.max_batch = 4;
  mc.max_delay_us = 500;
  mc.queue_capacity = 64;
  server.load("ramp", artifact, mc);
  ServeHarness harness(server, "ramp");

  // Up-then-down offered load.  The asserted contract is structural —
  // every served sample reports a rung and matches it bit-exactly; how
  // far the controller degrades depends on machine speed.
  HarnessOptions options;
  options.producers = 2;
  options.ramp = {{2000.0, 10}, {20000.0, 10}, {2000.0, 10}};
  const HarnessReport report = harness.run(x, options);

  EXPECT_EQ(report.requests + report.rejected, x.dim(0));
  ASSERT_EQ(report.rungs.size(), x.dim(0));
  std::size_t served = 0;
  for (std::size_t i = 0; i < x.dim(0); ++i) {
    if (report.outputs[i].numel() == 0) {
      EXPECT_EQ(report.rungs[i], -1) << "shed sample " << i;
      continue;
    }
    ++served;
    ASSERT_GE(report.rungs[i], 0) << "sample " << i;
    ASSERT_LT(report.rungs[i], 3) << "sample " << i;
    EXPECT_EQ(
        max_row_diff(report.outputs[i],
                     per_rung[static_cast<std::size_t>(report.rungs[i])], i),
        0.0f)
        << "sample " << i << " rung " << report.rungs[i];
  }
  EXPECT_EQ(served, report.requests);
  server.shutdown();
}

}  // namespace
}  // namespace ccq::serve
