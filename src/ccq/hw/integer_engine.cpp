#include "ccq/hw/integer_engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <set>
#include <type_traits>

#include "ccq/common/telemetry.hpp"
#include "ccq/hw/fixed_point.hpp"
#include "ccq/nn/conv.hpp"
#include "ccq/nn/linear.hpp"
#include "ccq/nn/norm.hpp"
#include "ccq/nn/pool.hpp"
#include "ccq/quant/act_quant.hpp"
#include "ccq/quant/weight_hooks.hpp"

namespace ccq::hw {

namespace {

constexpr float kInputScale = 1.0f / 255.0f;  // 8-bit input quantization

/// Infer the uniform grid spacing of a quantized tensor from its distinct
/// values (the legacy path — hooks now report their step directly via
/// QuantizerHook::grid_step).  Returns 0 when the tensor is constant
/// (degenerate layer).
float infer_step(const Tensor& q) {
  std::set<float> values(q.data().begin(), q.data().end());
  float step = 0.0f;
  float prev = 0.0f;
  bool first = true;
  for (float v : values) {
    if (!first) {
      const float gap = v - prev;
      if (gap > 1e-12f && (step == 0.0f || gap < step)) step = gap;
    }
    prev = v;
    first = false;
  }
  return step;
}

/// Checked fallback around `infer_step` for hooks that do not report
/// grid_step(): after inferring the step from the tensor's distinct
/// values, verify every value actually sits on the half-step grid.  A
/// mis-inferred step (non-uniform grids such as per-channel clips) used
/// to corrupt the compiled codes silently; now it fails loudly, naming
/// the layer and the quantization policy.
float infer_step_checked(const Tensor& q, const std::string& layer,
                         const nn::QuantizerHook* hook) {
  const float step = infer_step(q);
  if (step == 0.0f) return 0.0f;  // constant tensor, caller substitutes 1
  const float half = step / 2.0f;
  for (float v : q.data()) {
    const float c = v / half;
    if (std::fabs(c - std::round(c)) > 1e-3f) {
      const auto* wh = dynamic_cast<const quant::WeightQuantHook*>(hook);
      const std::string policy = wh != nullptr ? wh->policy_name() : "unknown";
      throw Error("integer engine: layer '" + layer + "' (policy " + policy +
                  "): grid-step inference failed — weight value " +
                  std::to_string(v) + " is not on the inferred step " +
                  std::to_string(step) +
                  "; the quantizer hook must report grid_step() for "
                  "non-uniform grids");
    }
  }
  return step;
}

struct FoldedBn {
  std::vector<float> scale;  ///< γ/σ per channel
  std::vector<float> shift;  ///< β − γμ/σ per channel
};

FoldedBn fold_bn(const nn::BatchNorm2d* bn, std::size_t channels) {
  FoldedBn folded;
  folded.scale.assign(channels, 1.0f);
  folded.shift.assign(channels, 0.0f);
  if (bn == nullptr) return folded;
  // Access running stats / affine params through the public interface.
  const Tensor& mean = bn->running_mean();
  const Tensor& var = bn->running_var();
  auto* mutable_bn = const_cast<nn::BatchNorm2d*>(bn);
  const Tensor& gamma = mutable_bn->gamma().value;
  const Tensor& beta = mutable_bn->beta().value;
  for (std::size_t c = 0; c < channels; ++c) {
    const float inv_std = 1.0f / std::sqrt(var.at(c) + 1e-5f);
    folded.scale[c] = gamma.at(c) * inv_std;
    folded.shift[c] = beta.at(c) - gamma.at(c) * mean.at(c) * inv_std;
  }
  return folded;
}

/// Activation metadata from a quantized activation module.
void read_act(nn::Module* module, IntLayerPlan& plan) {
  if (auto* pact = dynamic_cast<quant::PactActivation*>(module)) {
    plan.has_act = true;
    plan.act_bits = pact->bits();
    plan.act_clip = std::max(pact->alpha(), 1e-3f);
  } else if (auto* clip = dynamic_cast<quant::ClipActQuant*>(module)) {
    plan.has_act = true;
    plan.act_bits = clip->bits();
    plan.act_clip = clip->clip();
  } else {
    throw Error("unsupported activation module in integer engine: " +
                module->type_name());
  }
}

float act_scale(const IntLayerPlan& plan) {
  CCQ_CHECK(plan.has_act, "layer has no activation grid");
  CCQ_CHECK(plan.act_bits < 16, "activation not quantized");
  return plan.act_clip /
         static_cast<float>((1u << plan.act_bits) - 1u);
}

}  // namespace

std::vector<std::int32_t> encode_doubled(const Tensor& q, float step,
                                         int bits, const std::string& layer) {
  CCQ_CHECK(step > 0.0f, "encode_doubled needs a positive grid step");
  std::vector<std::int32_t> codes;
  codes.reserve(q.numel());
  const float half = step / 2.0f;
  // Doubled codes of any b-bit grid (zero-centred or half-offset) lie in
  // ±2^b; anything beyond means the inferred step does not describe the
  // tensor, and lround would have narrowed it silently.
  const long envelope = 1L << bits;
  for (float v : q.data()) {
    const long c = std::lround(v / half);
    if (c > envelope || c < -envelope) {
      throw Error("integer engine: layer '" + layer + "': weight value " +
                  std::to_string(v) + " encodes to doubled code " +
                  std::to_string(c) + ", outside the " +
                  std::to_string(bits) + "-bit envelope of +/-" +
                  std::to_string(envelope));
    }
    codes.push_back(static_cast<std::int32_t>(c));
  }
  return codes;
}

IntegerNetwork IntegerNetwork::compile(models::QuantModel& model) {
  std::vector<IntLayerPlan> plans;
  nn::Sequential& seq = model.net();
  float input_scale = kInputScale;  // scale of the incoming activations

  auto compile_weights = [&](nn::Parameter& weight,
                             nn::QuantizerHook* hook,
                             std::size_t out_channels,
                             const FoldedBn& bn,
                             const Tensor* conv_bias,
                             IntLayerPlan& plan) {
    CCQ_CHECK(hook != nullptr, "layer has no weight quantizer");
    CCQ_CHECK(hook->bits() < 16,
              "integer engine requires quantized weights (<16 bits)");
    const Tensor q = hook->quantize(weight.value);
    // Prefer the hook's own grid metadata — the exact float the quantizer
    // snapped to, with no O(n log n) distinct-value walk.  Hooks that
    // cannot report a step (non-uniform grids) fall through to the
    // checked inference fallback.
    float step = hook->grid_step();
    if (step <= 0.0f) step = infer_step_checked(q, plan.name, hook);
    if (step == 0.0f) step = 1.0f;  // constant (all-zero) weights
    plan.weight_codes = encode_doubled(q, step, hook->bits(), plan.name);
    plan.weight_bits = hook->bits();
    plan.channel_scale.assign(out_channels, 0.0f);
    plan.bias.assign(out_channels, 0.0f);
    for (std::size_t c = 0; c < out_channels; ++c) {
      plan.channel_scale[c] =
          (step / 2.0f) * input_scale * bn.scale[c];
      const float base_bias =
          conv_bias != nullptr ? conv_bias->at(c) : 0.0f;
      plan.bias[c] = base_bias * bn.scale[c] + bn.shift[c];
    }
  };

  // Conv/linear plans are named after their registry unit (compile walks
  // the sequence in registration order), the rest after their type.
  std::size_t unit_idx = 0;
  auto unit_name = [&](const std::string& type, std::size_t i) {
    if (unit_idx < model.registry().size()) {
      return model.registry().unit(unit_idx++).name;
    }
    return type + "@" + std::to_string(i);
  };

  for (std::size_t i = 0; i < seq.size(); ++i) {
    nn::Module& module = seq.child(i);
    const std::string type = module.type_name();
    if (type == "Conv2d") {
      auto& conv = dynamic_cast<nn::Conv2d&>(module);
      IntLayerPlan plan;
      plan.kind = IntLayerPlan::Kind::kConv;
      plan.name = unit_name(type, i);
      plan.in_channels = conv.in_channels();
      plan.out_channels = conv.out_channels();
      plan.kernel = conv.kernel();
      plan.stride = conv.stride();
      plan.pad = conv.pad();
      // Optional BN directly after.
      const nn::BatchNorm2d* bn = nullptr;
      if (i + 1 < seq.size() &&
          seq.child(i + 1).type_name() == "BatchNorm2d") {
        bn = &dynamic_cast<nn::BatchNorm2d&>(seq.child(i + 1));
        ++i;
      }
      // Optional quantized activation after that.
      if (i + 1 < seq.size() &&
          (seq.child(i + 1).type_name() == "PactActivation" ||
           seq.child(i + 1).type_name() == "ClipActQuant")) {
        read_act(&seq.child(i + 1), plan);
        ++i;
      }
      const FoldedBn folded = fold_bn(bn, plan.out_channels);
      compile_weights(conv.weight(), conv.weight_quantizer(),
                      plan.out_channels, folded,
                      conv.has_bias() ? &conv.bias().value : nullptr, plan);
      if (plan.has_act) input_scale = act_scale(plan);
      plans.push_back(std::move(plan));
    } else if (type == "Linear") {
      auto& fc = dynamic_cast<nn::Linear&>(module);
      IntLayerPlan plan;
      plan.kind = IntLayerPlan::Kind::kLinear;
      plan.name = unit_name(type, i);
      plan.in_features = fc.in_features();
      plan.out_features = fc.out_features();
      if (i + 1 < seq.size() &&
          (seq.child(i + 1).type_name() == "PactActivation" ||
           seq.child(i + 1).type_name() == "ClipActQuant")) {
        read_act(&seq.child(i + 1), plan);
        ++i;
      }
      const FoldedBn identity = fold_bn(nullptr, plan.out_features);
      compile_weights(fc.weight(), fc.weight_quantizer(), plan.out_features,
                      identity, fc.has_bias() ? &fc.bias().value : nullptr,
                      plan);
      if (plan.has_act) input_scale = act_scale(plan);
      plans.push_back(std::move(plan));
    } else if (type == "MaxPool2d") {
      auto& pool = dynamic_cast<nn::MaxPool2d&>(module);
      IntLayerPlan plan;
      plan.kind = IntLayerPlan::Kind::kMaxPool;
      plan.name = type + "@" + std::to_string(i);
      plan.pool_kernel = pool.kernel();
      plan.pool_stride = pool.stride();
      plans.push_back(plan);
    } else if (type == "AvgPool2d") {
      auto& pool = dynamic_cast<nn::AvgPool2d&>(module);
      IntLayerPlan plan;
      plan.kind = IntLayerPlan::Kind::kAvgPool;
      plan.name = type + "@" + std::to_string(i);
      plan.pool_kernel = pool.kernel();
      plan.pool_stride = pool.stride();
      plans.push_back(plan);
    } else if (type == "GlobalAvgPool") {
      IntLayerPlan plan;
      plan.kind = IntLayerPlan::Kind::kGlobalAvgPool;
      plan.name = type + "@" + std::to_string(i);
      plans.push_back(plan);
    } else if (type == "Flatten") {
      IntLayerPlan plan;
      plan.kind = IntLayerPlan::Kind::kFlatten;
      plan.name = type + "@" + std::to_string(i);
      plans.push_back(plan);
    } else if (type == "Residual") {
      throw Error(
          "integer engine supports sequential topologies only; residual "
          "graphs run through the float simulation path");
    } else {
      throw Error("integer engine: unsupported module " + type);
    }
  }
  CCQ_CHECK(!plans.empty(), "empty model");
  return from_plans(std::move(plans));
}

IntegerNetwork IntegerNetwork::from_plans(std::vector<IntLayerPlan> plans) {
  std::vector<std::vector<IntLayerPlan>> rungs(1);
  rungs.front() = std::move(plans);
  return from_rungs(std::move(rungs), {RungInfo{}});
}

IntegerNetwork IntegerNetwork::from_rungs(
    std::vector<std::vector<IntLayerPlan>> rungs, std::vector<RungInfo> info) {
  CCQ_CHECK(!rungs.empty(), "cannot build an integer network from 0 rungs");
  CCQ_CHECK(rungs.size() == info.size(),
            "rung info covers " + std::to_string(info.size()) +
                " rungs, plan sets cover " + std::to_string(rungs.size()));
  const std::vector<IntLayerPlan>& top = rungs.front();
  CCQ_CHECK(!top.empty(), "cannot build an integer network from 0 plans");
  for (std::size_t r = 1; r < rungs.size(); ++r) {
    CCQ_CHECK(rungs[r].size() == top.size(),
              "rung " + std::to_string(r) + " holds " +
                  std::to_string(rungs[r].size()) + " layers, rung 0 holds " +
                  std::to_string(top.size()));
    for (std::size_t i = 0; i < top.size(); ++i) {
      const IntLayerPlan& a = top[i];
      const IntLayerPlan& b = rungs[r][i];
      // Rungs are precision variants of one network: the layer sequence
      // and geometry are invariant, so check_input / shape pinning done
      // against rung 0 hold for every rung.
      CCQ_CHECK(a.name == b.name && a.kind == b.kind,
                "rung " + std::to_string(r) + " layer " + std::to_string(i) +
                    " ('" + b.name + "') does not match rung 0 ('" + a.name +
                    "')");
      CCQ_CHECK(a.in_channels == b.in_channels &&
                    a.out_channels == b.out_channels && a.kernel == b.kernel &&
                    a.stride == b.stride && a.pad == b.pad &&
                    a.in_features == b.in_features &&
                    a.out_features == b.out_features &&
                    a.pool_kernel == b.pool_kernel &&
                    a.pool_stride == b.pool_stride,
                "rung " + std::to_string(r) + " layer '" + b.name +
                    "' changes geometry across rungs");
    }
  }
  IntegerNetwork net;
  net.rungs_ = std::move(rungs);
  net.rung_info_ = std::move(info);
  net.finalize_plans();
  return net;
}

namespace {

/// One rung's finalize pass.  Static bound on |incoming activation
/// codes|, threaded layer to layer: the input snap is 8-bit (codes in
/// [0, 255]); a b-bit activation grid emits codes in [0, 2^b − 1];
/// pooling and flatten keep values on (or, for averages, requantized
/// back onto) the current grid, so they preserve the bound.  0 marks an
/// unquantized producer — the consumer then accumulates in int64
/// unconditionally.
void finalize_rung(std::vector<IntLayerPlan>& plans, IgemmKernel requested) {
  std::int64_t in_bound = 255;
  for (auto& plan : plans) {
    if (plan.kind == IntLayerPlan::Kind::kConv ||
        plan.kind == IntLayerPlan::Kind::kLinear) {
      const bool conv = plan.kind == IntLayerPlan::Kind::kConv;
      const std::size_t rows =
          conv ? plan.out_channels : plan.out_features;
      const std::size_t depth =
          conv ? plan.in_channels * plan.kernel * plan.kernel
               : plan.in_features;
      plan.max_abs_code = igemm_max_abs(plan.weight_codes);
      plan.in_code_bound = in_bound;
      plan.accum =
          in_bound > 0 && igemm_fits_int32(plan.max_abs_code, in_bound, depth)
              ? IgemmAccum::kInt32
              : IgemmAccum::kInt64;
      plan.igemm_kernel = igemm_select_kernel(requested, plan.max_abs_code,
                                              plan.in_code_bound, plan.accum);
      // Conv consumes the panel on the left (kWX, per-row epilogue);
      // linear on the right (kXW), so outputs land row-major (batch×out).
      plan.panel = igemm_pack(plan.weight_codes, rows, depth,
                              conv ? IgemmForm::kWX : IgemmForm::kXW,
                              plan.igemm_kernel);
      // Fused fixed-point requantization: fold channel_scale/bias and
      // the activation grid into int32-multiplier requant parameters so
      // the igemm epilogue writes the next layer's codes directly.
      // Fusion needs integer codes arriving (in_bound > 0), a quantized
      // output grid, and a static accumulator bound inside make_requant's
      // 2^61 budget — anything else keeps the float epilogue.
      //
      // Artifact-loaded plans arrive with the per-channel `requant`
      // parameters populated and keep them verbatim (serving replays the
      // exporter's exact fixed-point path); only `out_qmax` / `acc_bound`
      // — exact integer functions of act_bits / weight codes / geometry,
      // not serialized — are rederived here.  Freshly compiled and
      // synthetic plans compute everything.
      const bool fusable =
          plan.has_act && plan.act_bits < 16 && in_bound > 0;
      std::int64_t bound = -1;  // -1 = overflows the budget, unfusable
      if (fusable) {
        constexpr std::int64_t kBudget = std::int64_t{1} << 61;
        const auto w = static_cast<std::int64_t>(plan.max_abs_code);
        if (w == 0 || depth == 0) {
          bound = 0;
        } else if (in_bound <= kBudget / w &&
                   w * in_bound <= kBudget / static_cast<std::int64_t>(depth)) {
          bound = w * in_bound * static_cast<std::int64_t>(depth);
        }
      }
      if (!plan.requant.empty()) {
        CCQ_CHECK(fusable && bound >= 0,
                  "integer engine: layer '" + plan.name +
                      "' carries requant parameters but is not fusable "
                      "(inconsistent artifact)");
        plan.requant_fused = true;
        plan.out_qmax = static_cast<std::int32_t>((1 << plan.act_bits) - 1);
        plan.acc_bound = bound;
      } else if (bound >= 0) {
        const float out_scale = act_scale(plan);
        std::vector<Requant> rq(rows);
        bool ok = true;
        for (std::size_t c = 0; c < rows && ok; ++c) {
          const double ratio =
              static_cast<double>(plan.channel_scale[c]) / out_scale;
          const double bias_ratio =
              static_cast<double>(plan.bias[c]) / out_scale;
          ok = make_requant(ratio, bias_ratio, bound, rq[c]);
        }
        if (ok) {
          plan.requant = std::move(rq);
          plan.requant_fused = true;
          plan.out_qmax =
              static_cast<std::int32_t>((1 << plan.act_bits) - 1);
          plan.acc_bound = bound;
        }
      }
      if (plan.requant.empty()) plan.requant_fused = false;
      in_bound = plan.has_act && plan.act_bits < 16
                     ? (std::int64_t{1} << plan.act_bits) - 1
                     : 0;
    }
  }
}

}  // namespace

void IntegerNetwork::finalize_plans() {
  // $CCQ_IGEMM_KERNEL is read once for the whole network (kAuto when
  // unset); each layer then resolves it against its own static bounds,
  // so a 2-bit conv can run vec-packed while the int64-accumulating
  // classifier head falls back to scalar in the same net.  Multi-point
  // networks finalize every rung independently — each serving point
  // gets its own kernel selection, accumulator proof and requant
  // rederivation against its own bit widths.
  const IgemmKernel requested = igemm_requested_kernel();
  for (auto& plans : rungs_) finalize_rung(plans, requested);
}

const IntLayerPlan& IntegerNetwork::plan(std::size_t i) const {
  return plan(0, i);
}

const IntLayerPlan& IntegerNetwork::plan(std::size_t rung,
                                         std::size_t i) const {
  CCQ_CHECK(rung < rungs_.size(), "rung index out of range");
  CCQ_CHECK(i < rungs_[rung].size(), "plan index out of range");
  return rungs_[rung][i];
}

const RungInfo& IntegerNetwork::rung_info(std::size_t rung) const {
  CCQ_CHECK(rung < rung_info_.size(), "rung index out of range");
  return rung_info_[rung];
}

namespace {

/// Grid snap of a float activation straight into an int32 code buffer
/// (the float-fallback path; the code domain never leaves integers).
void to_int_codes(const Tensor& x, float scale, std::int32_t* codes) {
  auto xp = x.data();
  for (std::size_t i = 0; i < xp.size(); ++i) {
    codes[i] = static_cast<std::int32_t>(std::lround(xp[i] / scale));
  }
}

/// Apply the layer's activation quantizer to a float tensor.
void apply_act(Tensor& x, const IntLayerPlan& plan) {
  if (!plan.has_act) return;
  auto xp = x.data();
  if (plan.act_bits >= 16) {
    for (auto& v : xp) v = std::clamp(v, 0.0f, plan.act_clip);
    return;
  }
  const float n = static_cast<float>((1u << plan.act_bits) - 1u);
  const float s = plan.act_clip / n;
  for (auto& v : xp) {
    v = std::clamp(std::round(std::clamp(v, 0.0f, plan.act_clip) / s),
                   0.0f, n) *
        s;
  }
}

// ---- code-domain helpers ---------------------------------------------------
//
// While every layer keeps a quantized activation grid, the engine carries
// the activation *codes* (u8 for grids up to 8 bits, i16 above) instead
// of a float tensor.

/// Valid-window pool output extent (matches nn::MaxPool2d/AvgPool2d).
inline std::size_t pool_out(std::size_t in, std::size_t k, std::size_t s) {
  return (in - k) / s + 1;
}

/// Round-half-up integer mean of non-negative codes — the code-domain
/// equivalent of float-averaging grid values and re-snapping (means of
/// non-negative values round half away from zero = half up).
inline std::int64_t mean_code(std::int64_t sum, std::int64_t cnt) {
  return (2 * sum + cnt) / (2 * cnt);
}

/// Snap a float tensor whose values lie on (or near) the grid `scale`
/// onto integer codes in [0, qmax].  Used for the 8-bit input snap and
/// for re-entering the code domain after an unfused layer's apply_act
/// (where the snap is exact: every value is already k·scale).
template <typename T>
void snap_codes(const Tensor& t, float scale, std::int64_t qmax, T* dst) {
  auto p = t.data();
  for (std::size_t i = 0; i < p.size(); ++i) {
    dst[i] = static_cast<T>(
        std::clamp<long>(std::lround(p[i] / scale), 0L,
                         static_cast<long>(qmax)));
  }
}

/// Decode codes back to a float tensor: value = code · scale.
template <typename T>
Tensor decode_codes(const T* src, const Shape& shape, float scale,
                    Workspace& ws) {
  Tensor out = ws.tensor_uninit(shape);
  auto p = out.data();
  for (std::size_t i = 0; i < p.size(); ++i) {
    p[i] = static_cast<float>(src[i]) * scale;
  }
  return out;
}

/// Integer max pool over code planes (exact: max commutes with the
/// positive decode scale).
template <typename T>
void pool_max_codes(const T* src, T* dst, std::size_t n, std::size_t c,
                    std::size_t h, std::size_t w, std::size_t k,
                    std::size_t s) {
  const std::size_t oh = pool_out(h, k, s), ow = pool_out(w, k, s);
  for (std::size_t i = 0; i < n * c; ++i) {
    const T* plane = src + i * h * w;
    T* out = dst + i * oh * ow;
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        T best = plane[oy * s * w + ox * s];
        for (std::size_t ky = 0; ky < k; ++ky) {
          for (std::size_t kx = 0; kx < k; ++kx) {
            best = std::max(best, plane[(oy * s + ky) * w + (ox * s + kx)]);
          }
        }
        out[oy * ow + ox] = best;
      }
    }
  }
}

/// Integer average pool over code planes; each window mean is
/// requantized back onto the grid with mean_code.
template <typename T>
void pool_avg_codes(const T* src, T* dst, std::size_t n, std::size_t c,
                    std::size_t h, std::size_t w, std::size_t k,
                    std::size_t s) {
  const std::size_t oh = pool_out(h, k, s), ow = pool_out(w, k, s);
  const auto cnt = static_cast<std::int64_t>(k * k);
  for (std::size_t i = 0; i < n * c; ++i) {
    const T* plane = src + i * h * w;
    T* out = dst + i * oh * ow;
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        std::int64_t sum = 0;
        for (std::size_t ky = 0; ky < k; ++ky) {
          for (std::size_t kx = 0; kx < k; ++kx) {
            sum += plane[(oy * s + ky) * w + (ox * s + kx)];
          }
        }
        out[oy * ow + ox] = static_cast<T>(mean_code(sum, cnt));
      }
    }
  }
}

/// Integer global average pool: (n, c, h, w) codes → (n, c) codes.
template <typename T>
void gap_codes(const T* src, T* dst, std::size_t n, std::size_t c,
               std::size_t hw) {
  for (std::size_t i = 0; i < n * c; ++i) {
    std::int64_t sum = 0;
    for (std::size_t j = 0; j < hw; ++j) sum += src[i * hw + j];
    dst[i] = static_cast<T>(mean_code(sum, static_cast<std::int64_t>(hw)));
  }
}

/// Owner of the flowing activation codes in the walk: exactly one of
/// the u8 / i16 leases is engaged while the network stays in the code
/// domain (leases have deleted move-assignment, hence the optionals).
class CodeStore {
 public:
  bool engaged() const { return b8_.has_value() || i16_.has_value(); }
  void reset() {
    b8_.reset();
    i16_.reset();
  }
  /// Call `f` with the engaged typed code pointer.
  template <typename F>
  void visit(F&& f) const {
    if (b8_.has_value()) {
      f(static_cast<const std::uint8_t*>(b8_->data()));
    } else {
      f(static_cast<const std::int16_t*>(i16_->data()));
    }
  }
  /// Lease `n` codes of type T (u8 or i16), let `fill` write them, then
  /// make them the flowing codes; `fill` may still read the old ones.
  template <typename T, typename F>
  void produce(Workspace& ws, std::size_t n, F&& fill) {
    if constexpr (std::is_same_v<T, std::uint8_t>) {
      Workspace::ByteLease lease = ws.bytes(n);
      fill(lease.data());
      reset();
      b8_.emplace(std::move(lease));
    } else {
      Workspace::ShortLease lease = ws.shorts(n);
      fill(lease.data());
      reset();
      i16_.emplace(std::move(lease));
    }
  }
  /// `produce` at the narrowest width holding codes in [0, qmax].
  template <typename F>
  void produce(Workspace& ws, std::size_t n, std::int64_t qmax, F&& fill) {
    if (qmax <= 255) {
      produce<std::uint8_t>(ws, n, fill);
    } else {
      produce<std::int16_t>(ws, n, fill);
    }
  }
  /// Replace the codes with `n` codes of the same width, written by
  /// `f(src, dst)` (pooling).
  template <typename F>
  void map(Workspace& ws, std::size_t n, F&& f) {
    if (b8_.has_value()) {
      const std::uint8_t* src = b8_->data();
      produce<std::uint8_t>(ws, n, [&](std::uint8_t* dst) { f(src, dst); });
    } else {
      const std::int16_t* src = i16_->data();
      produce<std::int16_t>(ws, n, [&](std::int16_t* dst) { f(src, dst); });
    }
  }

 private:
  std::optional<Workspace::ByteLease> b8_;
  std::optional<Workspace::ShortLease> i16_;
};

void set_out(IgemmOp& op, std::uint8_t* out) { op.out8 = out; }
void set_out(IgemmOp& op, std::int16_t* out) { op.out16 = out; }

/// The one point where the two entry points' walks differ: how a
/// conv/linear op's integer MACs are executed.  The op arrives fully
/// described (shapes, activation codes, output, epilogue).
using MacStep = void (*)(const IgemmOp& op, const IntLayerPlan& plan,
                         const ExecContext& ctx);

/// Serving MAC step: the layer's selected igemm kernel over its packed
/// panel.
void igemm_mac(const IgemmOp& op, const IntLayerPlan&, const ExecContext& ctx) {
  igemm_run(op, ctx);
}

/// Specification MAC step: a naive int64 dot per output element over the
/// plan's unpacked `weight_codes` — a direct NCHW loop with stride and
/// zero padding — then the same `requant_apply` or float epilogue as the
/// kernels.  No packing, kernel selection, tiling, gather or accumulator
/// narrowing, so it is an independent oracle for all of them.
template <typename T>
void reference_mac_codes(const IgemmOp& op, const T* x,
                         const IntLayerPlan& plan, const ExecContext& ctx) {
  // A linear layer is a 1×1 convolution over one 1×1 image per row.
  const ConvGeometry g =
      op.conv ? op.conv->geometry
              : ConvGeometry{.in_channels = op.k, .in_h = 1, .in_w = 1};
  const std::size_t images = op.conv ? op.conv->images : op.m;
  const std::size_t channels = op.conv ? op.m : op.n;
  const std::size_t oh = g.out_h(), ow = g.out_w();
  // Integer MACs are exact, so any partition over the disjoint output
  // channels is trivially deterministic.
  parallel_for(ctx, channels, 4, [&](std::size_t oc0, std::size_t oc1) {
    for (std::size_t oc = oc0; oc < oc1; ++oc) {
      for (std::size_t img = 0; img < images; ++img) {
        const T* image = x + img * g.in_channels * g.in_h * g.in_w;
        for (std::size_t oy = 0; oy < oh; ++oy) {
          for (std::size_t ox = 0; ox < ow; ++ox) {
            std::int64_t acc = 0;
            for (std::size_t c = 0; c < g.in_channels; ++c) {
              for (std::size_t ky = 0; ky < g.kernel; ++ky) {
                // Padded-frame coordinates; taps outside the image read 0.
                const std::size_t iy = oy * g.stride + ky;
                if (iy < g.pad || iy >= g.in_h + g.pad) continue;
                const T* row = image + (c * g.in_h + iy - g.pad) * g.in_w;
                const std::int32_t* w = plan.weight_codes.data() + oc * op.k +
                                        (c * g.kernel + ky) * g.kernel;
                for (std::size_t kx = 0; kx < g.kernel; ++kx) {
                  const std::size_t ix = ox * g.stride + kx;
                  if (ix < g.pad || ix >= g.in_w + g.pad) continue;
                  acc += std::int64_t{w[kx]} * std::int64_t{row[ix - g.pad]};
                }
              }
            }
            const std::size_t at = ((img * channels + oc) * oh + oy) * ow + ox;
            if (op.requant == nullptr) {
              op.c[at] = static_cast<float>(acc) * plan.channel_scale[oc] +
                         plan.bias[oc];
            } else if (op.out8 != nullptr) {
              op.out8[at] = static_cast<std::uint8_t>(
                  requant_apply(acc, op.requant[oc], op.requant_qmax));
            } else {
              op.out16[at] = static_cast<std::int16_t>(
                  requant_apply(acc, op.requant[oc], op.requant_qmax));
            }
          }
        }
      }
    }
  });
}

void reference_mac(const IgemmOp& op, const IntLayerPlan& plan,
                   const ExecContext& ctx) {
  if (op.x8 != nullptr) {
    reference_mac_codes(op, op.x8, plan, ctx);
  } else if (op.x16 != nullptr) {
    reference_mac_codes(op, op.x16, plan, ctx);
  } else {
    reference_mac_codes(op, op.x, plan, ctx);
  }
}

/// The engine walk over one rung's plans; `mac` executes each conv/linear
/// layer's MACs.
Tensor walk(const std::vector<IntLayerPlan>& plans, const Tensor& x,
            Workspace& ws, const ExecContext& ctx, MacStep mac) {
  CCQ_CHECK(x.rank() == 4, "integer engine expects NCHW input");
  // Representation state: while every layer keeps a quantized activation
  // grid the batch flows as integer codes (`codes` engaged, described by
  // `shape`/`scale`); after the first unquantized producer (e.g. the
  // classifier head) it falls back to the float tensor `act`.  The code
  // rep at a conv/linear's input coincides exactly with the plan's
  // in_code_bound > 0, which is what finalize based fusion on.
  CodeStore codes;
  Tensor act;
  Shape shape = x.shape();
  float scale = kInputScale;
  {
    // Snap the input onto its 8-bit grid (standard input quantization).
    telemetry::ScopedTimer timer(telemetry::Timer::kHwRequant);
    codes.produce<std::uint8_t>(ws, x.numel(), [&](std::uint8_t* dst) {
      snap_codes(x, kInputScale, 255, dst);
    });
  }

  // After an unfused conv/linear: apply the float activation, then either
  // re-enter the code domain (quantized activation — the snap is exact
  // because apply_act already placed every value on the grid, and the
  // next plan's in_code_bound was threaded assuming codes) or stay float.
  auto unfused_output = [&](Tensor out, const IntLayerPlan& plan) {
    apply_act(out, plan);
    if (plan.has_act && plan.act_bits < 16) {
      scale = act_scale(plan);
      const std::int64_t qmax = (std::int64_t{1} << plan.act_bits) - 1;
      telemetry::ScopedTimer timer(telemetry::Timer::kHwRequant);
      codes.produce(ws, out.numel(), qmax,
                    [&](auto* dst) { snap_codes(out, scale, qmax, dst); });
      ws.recycle(std::move(out));
    } else {
      codes.reset();
      act = std::move(out);
    }
  };

  // One conv/linear layer.  `op` arrives with its form and shapes set;
  // this adds the plan's panel and bounds, points it at the flowing
  // activations, and issues the single MAC step.  A fused layer's requant
  // epilogue writes the next layer's codes — no float tensor is
  // materialised at the boundary; the rest take the float epilogue and
  // unfused_output.
  auto run_mac_layer = [&](IgemmOp& op, const IntLayerPlan& plan,
                           const Shape& out_shape) {
    op.panel = &plan.panel;
    op.accum = plan.accum;
    op.x_bound = plan.in_code_bound;
    op.ws = &ws;
    auto run_on_codes = [&] {
      codes.visit([&](const auto* src) { op.set_codes(src); });
      mac(op, plan, ctx);
    };
    if (codes.engaged() && plan.requant_fused) {
      op.requant = plan.requant.data();
      op.requant_qmax = plan.out_qmax;
      codes.produce(ws, shape_numel(out_shape), plan.out_qmax,
                    [&](auto* dst) {
                      set_out(op, dst);
                      run_on_codes();
                    });
      scale = act_scale(plan);
    } else {
      op.epilogue = {plan.channel_scale.data(), plan.bias.data()};
      Tensor out = ws.tensor_uninit(out_shape);
      op.c = out.data().data();
      if (codes.engaged()) {
        run_on_codes();
        codes.reset();
      } else {
        Workspace::IntLease xcodes = ws.ints(act.numel());
        to_int_codes(act, scale, xcodes.data());
        op.x = xcodes.data();
        mac(op, plan, ctx);
        ws.recycle(std::move(act));
      }
      unfused_output(std::move(out), plan);
    }
    shape = out_shape;
  };

  for (const auto& plan : plans) {
    switch (plan.kind) {
      case IntLayerPlan::Kind::kConv: {
        const std::size_t n = shape[0], h = shape[2], w = shape[3];
        const ConvGeometry g{.in_channels = plan.in_channels,
                             .in_h = h,
                             .in_w = w,
                             .kernel = plan.kernel,
                             .stride = plan.stride,
                             .pad = plan.pad};
        // The whole batch is one op: it reads the NCHW codes directly
        // and writes NCHW output (IgemmConv).
        IgemmOp op;
        op.form = IgemmForm::kWX;
        op.m = plan.out_channels;
        op.n = g.out_spatial();
        op.k = g.patch_size();
        op.conv = IgemmConv{.geometry = g, .images = n};
        run_mac_layer(op, plan, {n, plan.out_channels, g.out_h(), g.out_w()});
        break;
      }
      case IntLayerPlan::Kind::kLinear: {
        CCQ_CHECK(shape.size() == 2 && shape[1] == plan.in_features,
                  "linear input mismatch in integer engine");
        IgemmOp op;
        op.form = IgemmForm::kXW;
        op.m = shape[0];
        op.n = plan.out_features;
        op.k = plan.in_features;
        run_mac_layer(op, plan, {shape[0], plan.out_features});
        break;
      }
      case IntLayerPlan::Kind::kMaxPool:
      case IntLayerPlan::Kind::kAvgPool: {
        const bool avg = plan.kind == IntLayerPlan::Kind::kAvgPool;
        if (codes.engaged()) {
          const std::size_t n = shape[0], c = shape[1], h = shape[2],
                            w = shape[3];
          const std::size_t oh =
              pool_out(h, plan.pool_kernel, plan.pool_stride);
          const std::size_t ow =
              pool_out(w, plan.pool_kernel, plan.pool_stride);
          codes.map(ws, n * c * oh * ow, [&](const auto* src, auto* dst) {
            if (avg) {
              telemetry::ScopedTimer timer(telemetry::Timer::kHwRequant);
              pool_avg_codes(src, dst, n, c, h, w, plan.pool_kernel,
                             plan.pool_stride);
            } else {
              pool_max_codes(src, dst, n, c, h, w, plan.pool_kernel,
                             plan.pool_stride);
            }
          });
          shape = {n, c, oh, ow};
        } else if (avg) {
          nn::AvgPool2d pool(plan.pool_kernel, plan.pool_stride);
          pool.set_training(false);
          Tensor out = pool.forward(act, ws);
          ws.recycle(std::move(act));
          act = std::move(out);
          // Averaging leaves the grid; requantize onto the current scale
          // (what a fixed-point datapath does after a mean).
          auto p = act.data();
          for (auto& v : p) v = std::round(v / scale) * scale;
          shape = act.shape();
        } else {
          nn::MaxPool2d pool(plan.pool_kernel, plan.pool_stride);
          pool.set_training(false);  // inference: skip the argmax cache
          Tensor out = pool.forward(act, ws);
          ws.recycle(std::move(act));
          act = std::move(out);
          shape = act.shape();
        }
        break;
      }
      case IntLayerPlan::Kind::kGlobalAvgPool: {
        if (codes.engaged()) {
          const std::size_t n = shape[0], c = shape[1];
          const std::size_t hw = shape[2] * shape[3];
          telemetry::ScopedTimer timer(telemetry::Timer::kHwRequant);
          codes.map(ws, n * c, [&](const auto* src, auto* dst) {
            gap_codes(src, dst, n, c, hw);
          });
          shape = {n, c};
        } else {
          nn::GlobalAvgPool gap;
          gap.set_training(false);
          Tensor out = gap.forward(act, ws);
          ws.recycle(std::move(act));
          act = std::move(out);
          auto p = act.data();
          for (auto& v : p) v = std::round(v / scale) * scale;
          shape = act.shape();
        }
        break;
      }
      case IntLayerPlan::Kind::kFlatten: {
        // Shape-only: codes/float storage is untouched.
        shape = {shape[0], shape_numel(shape) / shape[0]};
        if (!codes.engaged()) act.resize(shape);
        break;
      }
    }
  }
  if (codes.engaged()) {
    // Fully quantized network: decode the final codes once at the edge.
    codes.visit(
        [&](const auto* src) { act = decode_codes(src, shape, scale, ws); });
    codes.reset();
  }
  return act;
}

}  // namespace

Tensor IntegerNetwork::forward(const Tensor& x) const {
  return forward(x, Workspace::scratch());
}

Tensor IntegerNetwork::forward(const Tensor& x, Workspace& ws) const {
  return forward(x, ws, ExecContext::global());
}

Tensor IntegerNetwork::forward(const Tensor& x, Workspace& ws,
                               const ExecContext& ctx) const {
  return forward(x, ws, ctx, 0);
}

Tensor IntegerNetwork::forward(const Tensor& x, Workspace& ws,
                               const ExecContext& ctx,
                               std::size_t rung) const {
  CCQ_CHECK(rung < rungs_.size(), "rung index out of range");
  return walk(rungs_[rung], x, ws, ctx, igemm_mac);
}

Tensor IntegerNetwork::forward_reference(const Tensor& x) const {
  return forward_reference(x, Workspace::scratch(), ExecContext::global());
}

Tensor IntegerNetwork::forward_reference(const Tensor& x, Workspace& ws,
                                         const ExecContext& ctx) const {
  return forward_reference(x, ws, ctx, 0);
}

Tensor IntegerNetwork::forward_reference(const Tensor& x, Workspace& ws,
                                         const ExecContext& ctx,
                                         std::size_t rung) const {
  CCQ_CHECK(rung < rungs_.size(), "rung index out of range");
  return walk(rungs_[rung], x, ws, ctx, reference_mac);
}

std::size_t IntegerNetwork::macs_per_sample(std::size_t h,
                                            std::size_t w) const {
  // Geometry is invariant across rungs (from_rungs checks it), so the
  // MAC count and input validation below read rung 0.
  std::size_t total = 0;
  std::size_t cur_h = h, cur_w = w;
  for (const auto& plan : rungs_.front()) {
    switch (plan.kind) {
      case IntLayerPlan::Kind::kConv: {
        const ConvGeometry g{.in_channels = plan.in_channels,
                             .in_h = cur_h,
                             .in_w = cur_w,
                             .kernel = plan.kernel,
                             .stride = plan.stride,
                             .pad = plan.pad};
        total += plan.out_channels * g.patch_size() * g.out_spatial();
        cur_h = g.out_h();
        cur_w = g.out_w();
        break;
      }
      case IntLayerPlan::Kind::kLinear:
        total += plan.in_features * plan.out_features;
        break;
      case IntLayerPlan::Kind::kMaxPool:
      case IntLayerPlan::Kind::kAvgPool:
        cur_h = (cur_h - plan.pool_kernel) / plan.pool_stride + 1;
        cur_w = (cur_w - plan.pool_kernel) / plan.pool_stride + 1;
        break;
      case IntLayerPlan::Kind::kGlobalAvgPool:
      case IntLayerPlan::Kind::kFlatten:
        cur_h = cur_w = 1;
        break;
    }
  }
  return total;
}

void IntegerNetwork::check_input(std::size_t channels, std::size_t height,
                                 std::size_t width) const {
  const std::string geometry = std::to_string(channels) + "x" +
                               std::to_string(height) + "x" +
                               std::to_string(width);
  CCQ_CHECK(channels != 0 && height != 0 && width != 0,
            "input sample " + geometry + " has a zero dimension");
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  CCQ_CHECK(height <= kMax / channels && width <= kMax / (channels * height),
            "input sample " + geometry + " overflows size_t");
  bool spatial = true;  // CHW code/activation map vs flattened features
  std::size_t c = channels, h = height, w = width;
  std::size_t features = 0;
  for (const auto& plan : rungs_.front()) {
    switch (plan.kind) {
      case IntLayerPlan::Kind::kConv: {
        CCQ_CHECK(spatial, "conv layer " + plan.name +
                               " reached after the activation map was "
                               "flattened (input sample " +
                               geometry + ")");
        CCQ_CHECK(c == plan.in_channels,
                  "conv layer " + plan.name + " expects " +
                      std::to_string(plan.in_channels) +
                      " input channels but input sample " + geometry +
                      " reaches it with " + std::to_string(c));
        CCQ_CHECK(h + 2 * plan.pad >= plan.kernel &&
                      w + 2 * plan.pad >= plan.kernel,
                  "conv layer " + plan.name + " kernel " +
                      std::to_string(plan.kernel) +
                      " exceeds its padded input for input sample " +
                      geometry);
        c = plan.out_channels;
        h = (h + 2 * plan.pad - plan.kernel) / plan.stride + 1;
        w = (w + 2 * plan.pad - plan.kernel) / plan.stride + 1;
        break;
      }
      case IntLayerPlan::Kind::kLinear:
        CCQ_CHECK(!spatial, "linear layer " + plan.name +
                                " reached with an unflattened activation "
                                "map (input sample " +
                                geometry + ")");
        CCQ_CHECK(features == plan.in_features,
                  "linear layer " + plan.name + " expects " +
                      std::to_string(plan.in_features) +
                      " features but input sample " + geometry +
                      " reaches it with " + std::to_string(features));
        features = plan.out_features;
        break;
      case IntLayerPlan::Kind::kMaxPool:
      case IntLayerPlan::Kind::kAvgPool:
        CCQ_CHECK(spatial, "pool layer " + plan.name +
                               " reached after the activation map was "
                               "flattened (input sample " +
                               geometry + ")");
        CCQ_CHECK(h >= plan.pool_kernel && w >= plan.pool_kernel,
                  "pool layer " + plan.name + " window " +
                      std::to_string(plan.pool_kernel) +
                      " exceeds its input for input sample " + geometry);
        h = (h - plan.pool_kernel) / plan.pool_stride + 1;
        w = (w - plan.pool_kernel) / plan.pool_stride + 1;
        break;
      case IntLayerPlan::Kind::kGlobalAvgPool:
        CCQ_CHECK(spatial, "global-avg-pool layer " + plan.name +
                               " reached after the activation map was "
                               "flattened (input sample " +
                               geometry + ")");
        spatial = false;
        features = c;
        break;
      case IntLayerPlan::Kind::kFlatten:
        if (spatial) {
          // Checked product: conv layers can grow the channel count, so
          // the entry overflow guard does not bound c·h·w here.
          CCQ_CHECK(h <= kMax / c && w <= kMax / (c * h),
                    "flatten layer " + plan.name +
                        " feature count overflows size_t for input sample " +
                        geometry);
          spatial = false;
          features = c * h * w;
        }
        break;
    }
  }
}

}  // namespace ccq::hw
