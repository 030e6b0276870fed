#include "ccq/nn/conv.hpp"

#include "ccq/common/telemetry.hpp"
#include "ccq/nn/init.hpp"
#include "ccq/tensor/gemm.hpp"

namespace ccq::nn {

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, std::size_t stride, std::size_t pad,
               bool bias, Rng& rng, std::string name)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      has_bias_(bias) {
  CCQ_CHECK(in_channels > 0 && out_channels > 0 && kernel > 0 && stride > 0,
            "invalid conv configuration");
  Tensor w({out_channels, in_channels, kernel, kernel});
  he_normal(w, in_channels * kernel * kernel, rng);
  weight_ = Parameter(name + ".weight", std::move(w));
  if (has_bias_) {
    bias_ = Parameter(name + ".bias", Tensor({out_channels}));
  }
}

ConvGeometry Conv2d::geometry(std::size_t h, std::size_t w) const {
  return ConvGeometry{.in_channels = in_channels_,
                      .in_h = h,
                      .in_w = w,
                      .kernel = kernel_,
                      .stride = stride_,
                      .pad = pad_};
}

std::size_t Conv2d::macs_per_sample(std::size_t in_h, std::size_t in_w) const {
  const auto g = geometry(in_h, in_w);
  return out_channels_ * g.patch_size() * g.out_spatial();
}

Tensor Conv2d::forward(const Tensor& x, Workspace& ws) {
  telemetry::ScopedTimer timer(telemetry::Timer::kConvForward);
  CCQ_CHECK(x.rank() == 4, "Conv2d expects NCHW input");
  CCQ_CHECK(x.dim(1) == in_channels_, "Conv2d channel mismatch");
  // Eval fast path: backward never runs, so skip the input cache.
  if (training_) input_ = x;  // copy-assign reuses capacity once warm
  if (weight_hook_) {
    weight_hook_->quantize_into(weight_.value, qweight_);
  } else {
    qweight_ = weight_.value;
  }

  const std::size_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const auto g = geometry(h, w);
  const std::size_t oh = g.out_h(), ow = g.out_w();
  const std::size_t patch = g.patch_size(), spatial = g.out_spatial();

  // Fully overwritten below (gemm beta=0 zero-fills each row panel).
  Tensor y = ws.tensor_uninit({n, out_channels_, oh, ow});
  const float* wp = qweight_.data().data();
  const ExecContext& ctx = exec();
  // Parallel over batch samples: each sample writes a disjoint output
  // slice and owns a private column buffer leased from the workspace
  // (per-thread arenas keep reuse thread-local).  With a single sample
  // the loop runs inline (no parallel region), so the inner im2col/GEMM
  // parallelise instead.
  parallel_for(ctx, n, 1, [&](std::size_t i0, std::size_t i1) {
    Workspace::Lease<float> cols = ws.lease<float>(patch * spatial);
    for (std::size_t i = i0; i < i1; ++i) {
      const float* xi = x.data().data() + i * in_channels_ * h * w;
      float* yi = y.data().data() + i * out_channels_ * spatial;
      im2col(xi, g, cols.data(), ctx);
      gemm(out_channels_, spatial, patch, 1.0f, wp, patch, cols.data(),
           spatial, 0.0f, yi, spatial, ctx);
      if (has_bias_) {
        for (std::size_t oc = 0; oc < out_channels_; ++oc) {
          const float b = bias_.value.at(oc);
          float* row = yi + oc * spatial;
          for (std::size_t s = 0; s < spatial; ++s) row[s] += b;
        }
      }
    }
  });
  return y;
}

Tensor Conv2d::backward(const Tensor& grad_out, Workspace& ws) {
  telemetry::ScopedTimer timer(telemetry::Timer::kConvBackward);
  CCQ_CHECK(input_.rank() == 4, "backward before forward");
  const std::size_t n = input_.dim(0);
  const std::size_t h = input_.dim(2), w = input_.dim(3);
  const auto g = geometry(h, w);
  const std::size_t patch = g.patch_size(), spatial = g.out_spatial();
  CCQ_CHECK(grad_out.rank() == 4 && grad_out.dim(0) == n &&
                grad_out.dim(1) == out_channels_ &&
                grad_out.dim(2) * grad_out.dim(3) == spatial,
            "Conv2d grad shape mismatch");

  // col2im scatters with +=, and dW accumulates across samples: both
  // need zeroed workspace tensors, not uninit ones.
  Tensor grad_in = ws.tensor(input_.shape());
  Tensor grad_qw = ws.tensor(weight_.value.shape());  // dL/d(quantized w)
  Workspace::Lease<float> cols = ws.lease<float>(patch * spatial);
  Workspace::Lease<float> cols_grad = ws.lease<float>(patch * spatial);
  const float* wp = qweight_.data().data();
  float* gwp = grad_qw.data().data();
  const ExecContext& ctx = exec();

  // The sample loop stays serial: dW and dbias accumulate across samples
  // and their order must not depend on thread count.  Within a sample
  // every parallel loop writes disjoint rows, and each element's
  // reduction runs in the serial kernel order, so results are
  // bit-identical for any thread count.
  for (std::size_t i = 0; i < n; ++i) {
    const float* xi = input_.data().data() + i * in_channels_ * h * w;
    const float* gyi = grad_out.data().data() + i * out_channels_ * spatial;
    float* gxi = grad_in.data().data() + i * in_channels_ * h * w;

    // dW += gy (out × spatial) · colsᵀ (spatial × patch)
    im2col(xi, g, cols.data(), ctx);
    parallel_for(ctx, out_channels_, 4, [&](std::size_t oc0, std::size_t oc1) {
      for (std::size_t oc = oc0; oc < oc1; ++oc) {
        const float* gyrow = gyi + oc * spatial;
        float* gwrow = gwp + oc * patch;
        for (std::size_t p = 0; p < patch; ++p) {
          const float* crow = cols.data() + p * spatial;
          float acc = 0.0f;
          for (std::size_t s = 0; s < spatial; ++s) acc += gyrow[s] * crow[s];
          gwrow[p] += acc;
        }
      }
    });

    // dcols = Wᵀ (patch × out) · gy (out × spatial), then scatter via
    // col2im.  Parallel over patch rows; the inner oc loop keeps the
    // serial accumulation order per element.
    parallel_for(ctx, patch, 8, [&](std::size_t p0, std::size_t p1) {
      for (std::size_t p = p0; p < p1; ++p) {
        float* dst = cols_grad.data() + p * spatial;
        std::fill(dst, dst + spatial, 0.0f);
        for (std::size_t oc = 0; oc < out_channels_; ++oc) {
          const float wv = wp[oc * patch + p];
          if (wv == 0.0f) continue;
          const float* gyrow = gyi + oc * spatial;
          for (std::size_t s = 0; s < spatial; ++s) dst[s] += wv * gyrow[s];
        }
      }
    });
    col2im(cols_grad.data(), g, gxi, ctx);

    if (has_bias_) {
      for (std::size_t oc = 0; oc < out_channels_; ++oc) {
        const float* gyrow = gyi + oc * spatial;
        float acc = 0.0f;
        for (std::size_t s = 0; s < spatial; ++s) acc += gyrow[s];
        bias_.grad.at(oc) += acc;
      }
    }
  }

  // Route the weight gradient through the quantizer's STE (identity when
  // no hook is attached).
  Tensor grad_w = weight_hook_
                      ? weight_hook_->backward(weight_.value, std::move(grad_qw))
                      : std::move(grad_qw);
  weight_.grad += grad_w;
  ws.recycle(std::move(grad_w));
  return grad_in;
}

void Conv2d::collect_parameters(std::vector<Parameter*>& out) {
  out.push_back(&weight_);
  if (has_bias_) out.push_back(&bias_);
  if (weight_hook_) weight_hook_->collect_parameters(out);
}

}  // namespace ccq::nn
