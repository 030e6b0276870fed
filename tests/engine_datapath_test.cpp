// Differential tests for the fused integer activation datapath.
//
// The contract: a fused forward — activation codes flowing layer to
// layer through requantizing igemm epilogues and integer pooling — is
// bit-identical to `forward_reference`, which runs the same engine walk
// with a naive int64 direct-convolution / row-dot MAC step in place of
// `igemm_run`, applying the same `requant_apply` spec, for every kernel
// variant, bit width, batch size, serving rung, thread count, conv
// geometry (kernel 1/3/5, stride 1/2, pad 0/1/2) and pooling mix.  The
// walk (code storage, pooling, float fallback) is shared, so its code
// widths are checked against the decoded grid directly.  Synthetic
// `from_plans` networks keep the sweep deterministic and let individual
// plan fields (activation bits, unquantized producers, off-grid average
// windows) be pinned exactly.
//
// Labelled `engine` and run on both CI legs next to the igemm
// differential suite.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "ccq/common/alloc.hpp"
#include "ccq/common/exec.hpp"
#include "ccq/common/rng.hpp"
#include "ccq/common/workspace.hpp"
#include "ccq/hw/integer_engine.hpp"
#include "ccq/serve/artifact.hpp"

namespace ccq::hw {
namespace {

/// RAII save/restore of $CCQ_IGEMM_KERNEL (kernel sweeps must not leak
/// a forced kernel into the rest of the suite).
struct KernelEnvGuard {
  KernelEnvGuard() {
    const char* cur = std::getenv("CCQ_IGEMM_KERNEL");
    had = cur != nullptr;
    if (had) saved = cur;
  }
  ~KernelEnvGuard() {
    if (had) {
      setenv("CCQ_IGEMM_KERNEL", saved.c_str(), 1);
    } else {
      unsetenv("CCQ_IGEMM_KERNEL");
    }
  }
  bool had = false;
  std::string saved;
};

const ExecContext& ctx_for(std::size_t threads) {
  static const ExecContext one;  // serial
  static const ExecContext two(2);
  static const ExecContext four(4);
  switch (threads) {
    case 2: return two;
    case 4: return four;
    default: return one;
  }
}

/// Random conv plan: `bits`-bit weight codes, optional `act_bits` grid,
/// `kernel`×`kernel` window at `stride` with `pad` zeros on each side.
/// Scales are small and positive so make_requant always fits the layer.
IntLayerPlan conv_plan(Rng& rng, const std::string& name, std::size_t in_ch,
                       std::size_t out_ch, int bits, int act_bits,
                       std::size_t kernel = 3, std::size_t stride = 1,
                       std::size_t pad = 1) {
  IntLayerPlan plan;
  plan.kind = IntLayerPlan::Kind::kConv;
  plan.name = name;
  plan.in_channels = in_ch;
  plan.out_channels = out_ch;
  plan.kernel = kernel;
  plan.stride = stride;
  plan.pad = pad;
  plan.weight_bits = bits;
  const std::int32_t max_code = (1 << bits) - 1;  // doubled-code envelope
  plan.weight_codes.resize(out_ch * in_ch * kernel * kernel);
  for (auto& c : plan.weight_codes) {
    c = static_cast<std::int32_t>(rng.uniform_int(2 * max_code + 1)) -
        max_code;
  }
  plan.channel_scale.resize(out_ch);
  plan.bias.resize(out_ch);
  for (std::size_t c = 0; c < out_ch; ++c) {
    plan.channel_scale[c] = static_cast<float>(rng.uniform(1e-4, 2e-3));
    plan.bias[c] = static_cast<float>(rng.uniform(-0.2, 0.2));
  }
  if (act_bits < 32) {
    plan.has_act = true;
    plan.act_bits = act_bits;
    plan.act_clip = 1.0f;
  }
  return plan;
}

IntLayerPlan linear_plan(Rng& rng, const std::string& name, std::size_t in_f,
                         std::size_t out_f, int bits, int act_bits) {
  IntLayerPlan plan;
  plan.kind = IntLayerPlan::Kind::kLinear;
  plan.name = name;
  plan.in_features = in_f;
  plan.out_features = out_f;
  plan.weight_bits = bits;
  const std::int32_t max_code = (1 << bits) - 1;
  plan.weight_codes.resize(out_f * in_f);
  for (auto& c : plan.weight_codes) {
    c = static_cast<std::int32_t>(rng.uniform_int(2 * max_code + 1)) -
        max_code;
  }
  plan.channel_scale.resize(out_f);
  plan.bias.resize(out_f);
  for (std::size_t c = 0; c < out_f; ++c) {
    plan.channel_scale[c] = static_cast<float>(rng.uniform(1e-4, 2e-3));
    plan.bias[c] = static_cast<float>(rng.uniform(-0.2, 0.2));
  }
  if (act_bits < 32) {
    plan.has_act = true;
    plan.act_bits = act_bits;
    plan.act_clip = 1.0f;
  }
  return plan;
}

IntLayerPlan pool_plan(IntLayerPlan::Kind kind, const std::string& name,
                       std::size_t k = 2, std::size_t s = 2) {
  IntLayerPlan plan;
  plan.kind = kind;
  plan.name = name;
  plan.pool_kernel = k;
  plan.pool_stride = s;
  return plan;
}

/// Redraw every conv/linear channel_scale as a gain in [1.5, 4.5] over
/// √(patch depth) × the weight code range × the incoming activation code
/// range, so a typical accumulator lands inside the next grid instead of
/// saturating at 0 or qmax (conv_plan's fixed scales over random
/// full-range weights and deep patches pin most outputs to the clip, and
/// a sweep comparing clipped codes proves little).
void scale_to_grid(Rng& rng, std::vector<IntLayerPlan>& plans) {
  double in_qmax = 255.0;  // the 8-bit input snap
  for (IntLayerPlan& plan : plans) {
    if (plan.kind != IntLayerPlan::Kind::kConv &&
        plan.kind != IntLayerPlan::Kind::kLinear) {
      continue;
    }
    const double depth =
        plan.kind == IntLayerPlan::Kind::kConv
            ? static_cast<double>(plan.in_channels * plan.kernel * plan.kernel)
            : static_cast<double>(plan.in_features);
    const double norm = std::sqrt(depth) *
                        static_cast<double>((1 << plan.weight_bits) - 1) *
                        in_qmax;
    for (float& s : plan.channel_scale) {
      s = static_cast<float>(rng.uniform(1.5, 4.5) / norm);
    }
    if (plan.has_act) in_qmax = static_cast<double>((1 << plan.act_bits) - 1);
  }
}

/// conv → maxpool → conv → 1×1 conv → 5×5 conv → stride-2 conv →
/// avgpool → gap → linear, everything fused until the unquantized
/// classifier head.  On an 8×8 input the convs see 8×8, 4×4, 4×4, 4×4
/// and 4×4 → 2×2 maps.
std::vector<IntLayerPlan> mixed_net(Rng& rng, int bits) {
  std::vector<IntLayerPlan> plans;
  plans.push_back(conv_plan(rng, "conv0", 3, 6, bits, bits));
  plans.push_back(pool_plan(IntLayerPlan::Kind::kMaxPool, "maxpool@1"));
  plans.push_back(conv_plan(rng, "conv1", 6, 8, bits, bits));
  plans.push_back(conv_plan(rng, "conv1x1", 8, 8, bits, bits, 1, 1, 0));
  plans.push_back(conv_plan(rng, "conv5x5", 8, 8, bits, bits, 5, 1, 2));
  plans.push_back(conv_plan(rng, "conv_s2", 8, 8, bits, bits, 3, 2, 1));
  plans.push_back(pool_plan(IntLayerPlan::Kind::kAvgPool, "avgpool@6"));
  plans.push_back(pool_plan(IntLayerPlan::Kind::kGlobalAvgPool, "gap@7"));
  plans.push_back(linear_plan(rng, "fc", 8, 4, bits, 32));
  scale_to_grid(rng, plans);
  return plans;
}

Tensor random_input(Rng& rng, std::size_t n, std::size_t c, std::size_t hw) {
  Tensor x({n, c, hw, hw});
  for (auto& v : x.data()) v = static_cast<float>(rng.uniform(0.0, 1.0));
  return x;
}

void expect_bit_identical(const IntegerNetwork& net, const Tensor& x,
                          const ExecContext& ctx, const std::string& where,
                          std::size_t rung = 0) {
  Workspace ws_fast, ws_ref;
  const Tensor fast = net.forward(x, ws_fast, ctx, rung);
  const Tensor ref = net.forward_reference(x, ws_ref, ctx, rung);
  ASSERT_EQ(fast.shape(), ref.shape()) << where;
  const auto fp = fast.data();
  const auto rp = ref.data();
  for (std::size_t i = 0; i < fp.size(); ++i) {
    ASSERT_EQ(fp[i], rp[i]) << where << " output " << i;
  }
}

// ---- fused vs reference sweep -----------------------------------------------

TEST(EngineDatapathTest, FusedMatchesReferenceAcrossKernelsBitsThreads) {
  KernelEnvGuard guard;
  // Batch sizes and rungs: a 3-rung (8/4/2-bit) network written to a
  // CCQA artifact and loaded back — the form serving runs — swept over
  // every batch size a worker can assemble, so conv ops whose position
  // tiles straddle image boundaries are checked at every rung.
  {
    std::vector<std::vector<IntLayerPlan>> rungs;
    for (int bits : {8, 4, 2}) {
      Rng rng(2000 + bits);
      rungs.push_back(mixed_net(rng, bits));
    }
    const std::string path =
        (std::filesystem::temp_directory_path() / "ccq_datapath_rungs.ccqa")
            .string();
    for (const char* kernel : {"scalar", "vec16", "vec-packed", "auto"}) {
      setenv("CCQ_IGEMM_KERNEL", kernel, 1);
      serve::export_artifact(
          IntegerNetwork::from_rungs(rungs, std::vector<RungInfo>(3)), path);
      const IntegerNetwork net = serve::load_artifact(path);
      ASSERT_EQ(net.rung_count(), 3u);
      Rng rng(31);
      for (std::size_t batch : {1, 2, 3, 4, 5, 6, 7, 8, 9, 32}) {
        const Tensor x = random_input(rng, batch, 3, 8);
        for (std::size_t rung = 0; rung < 3; ++rung) {
          ASSERT_TRUE(net.plan(rung, 0).requant_fused) << "conv0 must fuse";
          for (std::size_t threads : {1, 2, 4}) {
            expect_bit_identical(net, x, ctx_for(threads),
                                 std::string("kernel=") + kernel +
                                     " batch=" + std::to_string(batch) +
                                     " rung=" + std::to_string(rung) +
                                     " threads=" + std::to_string(threads),
                                 rung);
            if (HasFatalFailure()) return;
          }
        }
      }
    }
    std::filesystem::remove(path);
  }
  for (int bits : {2, 3, 4, 6, 8}) {
    Rng rng(1000 + bits);
    const auto plans = mixed_net(rng, bits);
    const Tensor x = random_input(rng, 3, 3, 8);
    for (const char* kernel : {"scalar", "vec16", "vec-packed"}) {
      setenv("CCQ_IGEMM_KERNEL", kernel, 1);
      const IntegerNetwork net = IntegerNetwork::from_plans(plans);
      // The sweep must actually exercise the fused epilogue.
      ASSERT_TRUE(net.plan(0).requant_fused) << "conv0 must fuse";
      for (std::size_t i : {2, 3, 4, 5}) {
        ASSERT_TRUE(net.plan(i).requant_fused) << net.plan(i).name
                                               << " must fuse";
      }
      ASSERT_FALSE(net.plan(8).requant_fused) << "fc head has no act grid";
      for (std::size_t threads : {1, 2, 4}) {
        expect_bit_identical(net, x, ctx_for(threads),
                             std::string("bits=") + std::to_string(bits) +
                                 " kernel=" + kernel +
                                 " threads=" + std::to_string(threads));
      }
    }
    // The comparison is only as sensitive as the codes it compares: cut
    // after the last fused conv, at least a quarter of the decoded
    // outputs must sit strictly inside the grid, not at 0 or qmax.
    const IntegerNetwork body = IntegerNetwork::from_plans(
        std::vector<IntLayerPlan>(plans.begin(), plans.begin() + 6));
    const Tensor y = body.forward(x);
    const float qmax = static_cast<float>((1 << bits) - 1);
    std::size_t interior = 0;
    for (float v : y.data()) {
      const float code = std::round(v * qmax);
      interior += code > 0.0f && code < qmax ? 1 : 0;
    }
    EXPECT_GE(4 * interior, y.numel())
        << "bits=" << bits << ": only " << interior << " of " << y.numel()
        << " outputs inside (0, " << qmax << ")";
  }
}

TEST(EngineDatapathTest, WideActivationGridsFlowAsInt16Codes) {
  // 12-bit activations: out_qmax = 4095 > 255, so codes travel as i16.
  KernelEnvGuard guard;
  unsetenv("CCQ_IGEMM_KERNEL");
  Rng rng(77);
  std::vector<IntLayerPlan> plans;
  plans.push_back(conv_plan(rng, "conv0", 3, 5, 4, 12));
  plans.push_back(conv_plan(rng, "conv1", 5, 6, 4, 12));
  plans.push_back(pool_plan(IntLayerPlan::Kind::kGlobalAvgPool, "gap@2"));
  plans.push_back(linear_plan(rng, "fc", 6, 3, 4, 32));
  const IntegerNetwork net = IntegerNetwork::from_plans(plans);
  ASSERT_TRUE(net.plan(0).requant_fused);
  ASSERT_EQ(net.plan(0).out_qmax, 4095);
  const Tensor x = random_input(rng, 2, 3, 6);
  for (std::size_t threads : {1, 4}) {
    expect_bit_identical(net, x, ctx_for(threads),
                         "i16 codes threads=" + std::to_string(threads));
  }

  // forward_reference shares the walk's code store, so it cannot catch
  // a wrong storage width.  A net that ends on the 12-bit conv decodes its codes
  // directly: every output must be a whole code in [0, 4095] times the
  // activation scale, and some code must exceed the u8 range.
  plans.resize(2);
  const IntegerNetwork conv_only = IntegerNetwork::from_plans(plans);
  const float scale = 1.0f / 4095.0f;  // act_clip 1 on a 12-bit grid
  const Tensor y = conv_only.forward(x);
  ASSERT_EQ(y.shape(), (Shape{2, 6, 6, 6}));
  bool above_u8 = false;
  for (float v : y.data()) {
    const float code = std::round(v / scale);
    ASSERT_EQ(code * scale, v) << "output " << v << " is off the 12-bit grid";
    ASSERT_GE(code, 0.0f);
    ASSERT_LE(code, 4095.0f);
    above_u8 = above_u8 || code > 255.0f;
  }
  EXPECT_TRUE(above_u8) << "no 12-bit code above 255: codes were narrowed";
}

TEST(EngineDatapathTest, UnquantizedProducerFallsBackAndRecovers) {
  // conv0 has no activation grid → conv1 sees float input (in_bound 0,
  // unfused); conv1's own quantized act re-enters the code domain, so
  // conv2 fuses again.  Both paths must still agree bit for bit.
  KernelEnvGuard guard;
  unsetenv("CCQ_IGEMM_KERNEL");
  Rng rng(42);
  std::vector<IntLayerPlan> plans;
  plans.push_back(conv_plan(rng, "conv0", 3, 4, 4, 32));  // no act
  plans.push_back(conv_plan(rng, "conv1", 4, 5, 4, 4));
  plans.push_back(conv_plan(rng, "conv2", 5, 6, 4, 4));
  plans.push_back(pool_plan(IntLayerPlan::Kind::kGlobalAvgPool, "gap@3"));
  plans.push_back(linear_plan(rng, "fc", 6, 3, 4, 32));
  const IntegerNetwork net = IntegerNetwork::from_plans(plans);
  EXPECT_FALSE(net.plan(0).requant_fused);  // no act grid to fuse into
  EXPECT_FALSE(net.plan(1).requant_fused);  // float input, unknown bound
  EXPECT_TRUE(net.plan(2).requant_fused);   // back on the code grid
  const Tensor x = random_input(rng, 2, 3, 6);
  expect_bit_identical(net, x, ctx_for(2), "fallback/recovery net");
}

// ---- integer pooling --------------------------------------------------------

TEST(EngineDatapathTest, AvgPoolRequantizesOffGridWindowsHalfUp) {
  // A 1×1 identity conv (weight code 2 ≈ weight 1 doubled, ratio ½·2)
  // maps input codes straight to activation codes, so the avgpool
  // windows below are exact integer means over known codes:
  //   window {0,1,1,3} → 5/4 = 1.25 → 1
  //   window {1,1,2,3} → 7/4 = 1.75 → 2
  //   window {1,2,0,3} → 6/4 = 1.5  → 2   (ties round half-up)
  //   window {2,2,4,4} → 12/4 = 3   → 3   (on-grid stays exact)
  IntLayerPlan conv;
  conv.kind = IntLayerPlan::Kind::kConv;
  conv.name = "identity";
  conv.in_channels = 1;
  conv.out_channels = 1;
  conv.kernel = 1;
  conv.stride = 1;
  conv.pad = 0;
  conv.weight_bits = 2;
  conv.weight_codes = {2};
  // acc = 2·code_in; requant ratio (channel_scale / out_scale) = ½ maps
  // it back to code_in: out_scale = 1/255 (act_clip 1 on 8 bits), so
  // channel_scale = ½·(1/255).
  conv.channel_scale = {0.5f / 255.0f};
  conv.bias = {0.0f};
  conv.has_act = true;
  conv.act_bits = 8;
  conv.act_clip = 1.0f;
  std::vector<IntLayerPlan> plans;
  plans.push_back(conv);
  plans.push_back(pool_plan(IntLayerPlan::Kind::kAvgPool, "avgpool@1"));
  const IntegerNetwork net = IntegerNetwork::from_plans(plans);
  ASSERT_TRUE(net.plan(0).requant_fused);

  const std::vector<std::int32_t> codes{0, 1, 1, 2,   // rows of a 4×4 image
                                        1, 3, 1, 3,   // (2×2 windows col-
                                        1, 2, 2, 2,   // umn-major in the
                                        0, 3, 4, 4};  // comment above)
  Tensor x({1, 1, 4, 4});
  for (std::size_t i = 0; i < codes.size(); ++i) {
    x.data()[i] = static_cast<float>(codes[i]) / 255.0f;
  }
  const Tensor out = net.forward(x);
  ASSERT_EQ(out.shape(), (Shape{1, 1, 2, 2}));
  const std::vector<std::int32_t> want{1, 2, 2, 3};
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_FLOAT_EQ(out.data()[i],
                    static_cast<float>(want[i]) / 255.0f)
        << "window " << i;
  }
  // And the reference path agrees bit for bit.
  expect_bit_identical(net, x, ctx_for(1), "avgpool off-grid");
}

// ---- allocation discipline --------------------------------------------------

TEST(EngineDatapathTest, WarmForwardMakesNoHeapAllocations) {
  if (!alloc_stats::enabled()) GTEST_SKIP() << "CCQ_COUNT_ALLOCS is off";
  KernelEnvGuard guard;
  unsetenv("CCQ_IGEMM_KERNEL");
  Rng rng(5);
  const IntegerNetwork net = IntegerNetwork::from_plans(mixed_net(rng, 4));
  const ExecContext& ctx = ctx_for(1);
  // Batched conv ops lease their padded input, gathered position tiles
  // and im2col columns from the workspace, so a warm forward allocates
  // nothing at any batch size.
  for (std::size_t batch : {1, 2, 8, 32}) {
    const Tensor x = random_input(rng, batch, 3, 8);
    Workspace ws;
    Tensor warmup = net.forward(x, ws, ctx);  // cold: populates the pools
    ws.recycle(std::move(warmup));  // output storage back to the pool too
    alloc_stats::reset();
    Tensor out = net.forward(x, ws, ctx);  // warm: pool hits only
    EXPECT_EQ(alloc_stats::count(), 0u)
        << alloc_stats::bytes() << " bytes allocated on a warm forward at "
        << "batch " << batch;
    EXPECT_GT(out.numel(), 0u);
    ws.recycle(std::move(out));
  }
}

}  // namespace
}  // namespace ccq::hw
