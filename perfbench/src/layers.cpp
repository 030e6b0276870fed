// hw/integer_engine, tensor/im2col and tensor/igemm, layer by layer.
//
// Each conv/linear plan is replayed through the public im2col + igemm_run
// API exactly as IntegerNetwork::forward issues it today: the plan's own
// packed panel, kernel, accumulator, requant epilogue (or float epilogue
// when unfused) and input-code bound, one im2col + igemm per image for a
// convolution and one igemm for a linear layer.  Inputs are seeded codes
// within the plan's bound.  Replays interleave with whole forwards of the
// same network, so `engine.unattributed_frac` (the share of a batch-1
// forward no replayed plan covers: input snap, pooling, decode, dispatch)
// compares timings taken under the same conditions.
#include <cmath>
#include <sstream>

#include "bench.hpp"
#include "ccq/common/rng.hpp"
#include "ccq/hw/mac_model.hpp"

namespace perfbench {
namespace {

using ccq::hw::IntLayerPlan;

constexpr std::uint64_t kProbeRequestBase = std::uint64_t{1} << 40;

/// One conv/linear plan with everything its replay needs.
struct PlanReplay {
  const IntLayerPlan* plan = nullptr;
  bool conv = false;
  ccq::ConvGeometry g;
  std::size_t in_elems = 0;   ///< per image (conv) / per sample (linear)
  std::size_t out_elems = 0;  ///< per image / per sample
  std::size_t macs = 0;       ///< per sample
  int in_bits = 32;           ///< activation code width feeding the MACs
  bool fused = false;
  // Input codes for the largest batch, in exactly one element type.
  std::vector<std::uint8_t> x8;
  std::vector<std::int16_t> x16;
  std::vector<std::int32_t> x32;
  // im2col columns (one image) in the same type.
  std::vector<std::uint8_t> c8;
  std::vector<std::int16_t> c16;
  std::vector<std::int32_t> c32;
  // Outputs for the largest batch.
  std::vector<std::uint8_t> o8;
  std::vector<std::int16_t> o16;
  std::vector<float> of;
  Samples im2col_ns[2], igemm_ns[2];  ///< index 0 = batch 1, 1 = batch 8
};

constexpr std::size_t kBatches[2] = {1, 8};

std::vector<PlanReplay> build_replays(const ccq::hw::IntegerNetwork& net,
                                      std::size_t image, std::uint64_t seed) {
  std::vector<PlanReplay> out;
  ccq::Rng rng(seed ^ 0x5eedULL);
  std::size_t c = net.plan(0).in_channels, h = image, w = image;
  const std::size_t max_b = kBatches[1];
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    const IntLayerPlan& plan = net.plan(i);
    switch (plan.kind) {
      case IntLayerPlan::Kind::kConv:
      case IntLayerPlan::Kind::kLinear: {
        PlanReplay r;
        r.plan = &plan;
        r.conv = plan.kind == IntLayerPlan::Kind::kConv;
        if (r.conv) {
          r.g = ccq::ConvGeometry{.in_channels = plan.in_channels,
                                  .in_h = h,
                                  .in_w = w,
                                  .kernel = plan.kernel,
                                  .stride = plan.stride,
                                  .pad = plan.pad};
          r.in_elems = c * h * w;
          r.out_elems = plan.out_channels * r.g.out_spatial();
          r.macs = plan.out_channels * r.g.patch_size() * r.g.out_spatial();
        } else {
          r.in_elems = plan.in_features;
          r.out_elems = plan.out_features;
          r.macs = plan.in_features * plan.out_features;
        }
        const std::int64_t bound = plan.in_code_bound;
        // Codes stay in the domain exactly when the plan's input bound is
        // known (the engine's invariant); the type follows the bound.
        r.fused = plan.requant_fused && bound > 0;
        r.in_bits = bound > 0 ? static_cast<int>(std::ceil(
                                    std::log2(static_cast<double>(bound) + 1)))
                              : 32;
        const std::int64_t hi = bound > 0 ? bound : 255;
        const std::size_t n_in = r.in_elems * max_b;
        const std::size_t cols =
            r.conv ? r.g.patch_size() * r.g.out_spatial() : 0;
        auto code = [&] {
          return static_cast<std::int64_t>(
              rng.uniform_int(static_cast<std::uint64_t>(hi) + 1));
        };
        if (bound > 0 && bound <= 255) {
          r.x8.resize(n_in);
          for (auto& v : r.x8) v = static_cast<std::uint8_t>(code());
          r.c8.resize(cols);
        } else if (bound > 0 && bound <= 32767) {
          r.x16.resize(n_in);
          for (auto& v : r.x16) v = static_cast<std::int16_t>(code());
          r.c16.resize(cols);
        } else {
          r.x32.resize(n_in);
          for (auto& v : r.x32) v = static_cast<std::int32_t>(code());
          r.c32.resize(cols);
        }
        const std::size_t n_out = r.out_elems * max_b;
        if (!r.fused) {
          r.of.resize(n_out);
        } else if (plan.out_qmax <= 255) {
          r.o8.resize(n_out);
        } else {
          r.o16.resize(n_out);
        }
        if (r.conv) {
          c = plan.out_channels;
          h = r.g.out_h();
          w = r.g.out_w();
        }
        out.push_back(std::move(r));
        break;
      }
      case IntLayerPlan::Kind::kMaxPool:
      case IntLayerPlan::Kind::kAvgPool:
        h = (h - plan.pool_kernel) / plan.pool_stride + 1;
        w = (w - plan.pool_kernel) / plan.pool_stride + 1;
        break;
      case IntLayerPlan::Kind::kGlobalAvgPool:
      case IntLayerPlan::Kind::kFlatten:
        break;  // linear plans carry their own feature count
    }
  }
  return out;
}

/// Replay one plan at batch `b`; returns {im2col ns, igemm ns} summed
/// over the batch.
std::pair<std::uint64_t, std::uint64_t> replay(PlanReplay& r, std::size_t b,
                                               ccq::Workspace& ws,
                                               const ccq::ExecContext& ctx,
                                               Tracer& tracer,
                                               std::uint64_t request) {
  const IntLayerPlan& plan = *r.plan;
  ccq::IgemmOp op;
  op.form = r.conv ? ccq::IgemmForm::kWX : ccq::IgemmForm::kXW;
  op.m = r.conv ? plan.out_channels : b;
  op.n = r.conv ? r.g.out_spatial() : plan.out_features;
  op.k = r.conv ? r.g.patch_size() : plan.in_features;
  op.panel = &plan.panel;
  op.accum = plan.accum;
  op.x_bound = plan.in_code_bound;
  op.ws = &ws;
  if (r.fused) {
    op.requant = plan.requant.data();
    op.requant_qmax = plan.out_qmax;
  } else {
    op.epilogue = {plan.channel_scale.data(), plan.bias.data()};
  }
  auto set_out = [&](std::size_t offset) {
    if (!r.o8.empty()) {
      op.out8 = r.o8.data() + offset;
    } else if (!r.o16.empty()) {
      op.out16 = r.o16.data() + offset;
    } else {
      op.c = r.of.data() + offset;
    }
  };
  std::uint64_t t_im2col = 0, t_igemm = 0;
  const std::uint64_t start = now_ns();
  if (r.conv) {
    for (std::size_t img = 0; img < b; ++img) {
      const std::size_t in_off = img * r.in_elems;
      const std::uint64_t t0 = now_ns();
      if (!r.x8.empty()) {
        ccq::im2col(r.x8.data() + in_off, r.g, r.c8.data(), ctx);
        op.x8 = r.c8.data();
      } else if (!r.x16.empty()) {
        ccq::im2col(r.x16.data() + in_off, r.g, r.c16.data(), ctx);
        op.x16 = r.c16.data();
      } else {
        ccq::im2col(r.x32.data() + in_off, r.g, r.c32.data(), ctx);
        op.x = r.c32.data();
      }
      const std::uint64_t t1 = now_ns();
      set_out(img * r.out_elems);
      ccq::igemm_run(op, ctx);
      const std::uint64_t t2 = now_ns();
      t_im2col += t1 - t0;
      t_igemm += t2 - t1;
      tracer.record(0, SpanKind::kIm2col, request, t0, t1, SpanKind::kPlan,
                    img);
      tracer.record(0, SpanKind::kIgemm, request, t1, t2, SpanKind::kPlan,
                    img);
    }
  } else {
    if (!r.x8.empty()) {
      op.x8 = r.x8.data();
    } else if (!r.x16.empty()) {
      op.x16 = r.x16.data();
    } else {
      op.x = r.x32.data();
    }
    set_out(0);
    const std::uint64_t t1 = now_ns();
    ccq::igemm_run(op, ctx);
    const std::uint64_t t2 = now_ns();
    t_igemm = t2 - t1;
    tracer.record(0, SpanKind::kIgemm, request, t1, t2, SpanKind::kPlan);
  }
  tracer.record(0, SpanKind::kPlan, request, start, now_ns());
  return {t_im2col, t_igemm};
}

}  // namespace

void probe_engine(const ccq::hw::IntegerNetwork& net, std::size_t image,
                  double budget_seconds, std::uint64_t seed, Tracer& tracer,
                  Report& report) {
  std::vector<PlanReplay> plans = build_replays(net, image, seed);
  const std::size_t channels = net.plan(0).in_channels;
  ccq::Rng rng(seed ^ 0xf00dULL);
  const std::size_t batches[3] = {1, 8, 32};
  ccq::Tensor inputs[3];
  for (int i = 0; i < 3; ++i) {
    inputs[i] = ccq::Tensor({batches[i], channels, image, image});
    for (float& v : inputs[i].data()) v = static_cast<float>(rng.uniform());
  }
  ccq::Workspace ws;
  const ccq::ExecContext serial;
  Samples forward_ns[3];
  std::vector<Samples> rung_ns(net.rung_count());
  std::uint64_t request = kProbeRequestBase;

  auto forward = [&](std::size_t bi, std::size_t rung) {
    const std::uint64_t t0 = now_ns();
    ccq::Tensor y = net.forward(inputs[bi], ws, serial, rung);
    const std::uint64_t t1 = now_ns();
    ws.recycle(std::move(y));
    tracer.record(0, SpanKind::kForward, request++, t0, t1);
    return static_cast<double>(t1 - t0);
  };

  // Warm the workspace pools and caches once before timing.
  for (std::size_t bi = 0; bi < 3; ++bi) forward(bi, 0);
  for (auto& r : plans) {
    for (std::size_t bi = 0; bi < 2; ++bi) {
      replay(r, kBatches[bi], ws, serial, tracer, request++);
    }
  }

  const std::uint64_t end =
      now_ns() + static_cast<std::uint64_t>(budget_seconds * 1e9);
  std::size_t rounds = 0;
  while (rounds < 5 || now_ns() < end) {
    forward_ns[0].add(forward(0, 0));
    for (auto& r : plans) {
      for (std::size_t bi = 0; bi < 2; ++bi) {
        const auto [a, g] =
            replay(r, kBatches[bi], ws, serial, tracer, request++);
        r.im2col_ns[bi].add(static_cast<double>(a));
        r.igemm_ns[bi].add(static_cast<double>(g));
      }
    }
    forward_ns[1].add(forward(1, 0));
    if (rounds % 4 == 0) forward_ns[2].add(forward(2, 0));
    for (std::size_t rung = 0; rung < net.rung_count(); ++rung) {
      rung_ns[rung].add(forward(0, rung));
    }
    ++rounds;
  }

  for (std::size_t bi = 0; bi < 3; ++bi) {
    report.metric("engine.per_sample_us.b" + std::to_string(batches[bi]),
                  forward_ns[bi].median() / 1e3 /
                      static_cast<double>(batches[bi]),
                  "us");
  }
  for (std::size_t rung = 0; rung < rung_ns.size() && rung < 3; ++rung) {
    report.metric("engine.rung_us.r" + std::to_string(rung),
                  rung_ns[rung].median() / 1e3, "us");
  }
  double attributed = 0.0;
  std::ostringstream table;
  table << "plans (batch 1, median ns over " << rounds << " rounds):";
  for (auto& r : plans) {
    const std::string& name = r.plan->name;
    attributed += r.im2col_ns[0].median() + r.igemm_ns[0].median();
    for (std::size_t bi = 0; bi < 2; ++bi) {
      const std::string b = ".b" + std::to_string(kBatches[bi]);
      report.metric("igemm." + name + b + ".ns", r.igemm_ns[bi].median(), "ns");
      report.metric("im2col." + name + b + ".ns", r.im2col_ns[bi].median(),
                    "ns");
    }
    const double igemm_b1 = r.igemm_ns[0].median();
    const double energy_pj =
        static_cast<double>(r.macs) *
        ccq::hw::mac_cost(r.plan->weight_bits, r.in_bits).energy_j * 1e12;
    report.metric("igemm." + name + ".macs", static_cast<double>(r.macs),
                  "count");
    report.metric("igemm." + name + ".gmacs",
                  ratio(r.macs, igemm_b1),
                  "GMAC/s");
    report.metric("hw." + name + ".energy_pj", energy_pj, "pJ");
    table << "\n  " << name << " kernel="
          << ccq::igemm_kernel_str(r.plan->igemm_kernel)
          << " w" << r.plan->weight_bits << "a" << r.in_bits
          << (r.fused ? " fused" : " float-epilogue") << " macs=" << r.macs
          << " im2col=" << r.im2col_ns[0].median()
          << " igemm=" << igemm_b1 << " energy_pj=" << energy_pj;
  }
  const double fwd_b1 = forward_ns[0].median();
  report.metric("engine.unattributed_frac",
                fwd_b1 > 0.0 ? 1.0 - attributed / fwd_b1 : 0.0, "ratio");
  table << "\n  forward b1 " << forward_ns[0].summary(1e-3) << " us";
  report.line(table.str());
}

}  // namespace perfbench
