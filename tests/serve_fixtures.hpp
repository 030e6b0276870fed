// Fixtures shared by the serving test suites: deterministic inputs, the
// small mixed-precision network they serve, and assertion helpers.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <filesystem>
#include <functional>
#include <string>

#include "ccq/common/error.hpp"
#include "ccq/common/telemetry.hpp"
#include "ccq/common/workspace.hpp"
#include "ccq/hw/integer_engine.hpp"
#include "ccq/models/simple.hpp"

namespace ccq::serve {

inline std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// `n` deterministic pseudo-random NCHW samples in [0, 1].
inline Tensor make_inputs(std::size_t n, std::size_t channels = 3,
                          std::size_t hw = 8) {
  Tensor x({n, channels, hw, hw});
  auto data = x.data();
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<float>((i * 2654435761u >> 8) & 255u) / 255.0f;
  }
  return x;
}

/// A small quantized CNN whose layer i sits at ladder position
/// i mod `stride` of an 8/4/2 ladder (the default gives a mixed 8/4/2
/// allocation; other strides give genuinely different integer networks
/// over the same input/output shapes).  Untrained — serve correctness is
/// about the datapath, not accuracy — but forwarded once in train mode
/// so activation ranges are calibrated before compiling.
inline models::QuantModel make_mixed_model(std::size_t stride = 3) {
  models::ModelConfig mc;
  mc.num_classes = 5;
  mc.image_size = 8;
  mc.width_multiplier = 0.25f;
  quant::QuantFactory factory{.policy = quant::Policy::kMinMax};
  auto model =
      models::make_simple_cnn(mc, factory, quant::BitLadder({8, 4, 2}));
  quant::LayerRegistry& registry = model.registry();
  for (std::size_t i = 0; i < registry.size(); ++i) {
    registry.set_ladder_pos(i, i % stride);
  }
  Workspace ws;
  model.set_training(true);
  model.forward(make_inputs(16), ws);
  model.set_training(false);
  return model;
}

inline hw::IntegerNetwork make_network(std::size_t stride = 3) {
  models::QuantModel model = make_mixed_model(stride);
  return hw::IntegerNetwork::compile(model);
}

inline float max_row_diff(const Tensor& row, const Tensor& batch,
                          std::size_t i) {
  float diff = 0.0f;
  for (std::size_t c = 0; c < row.dim(0); ++c) {
    diff = std::max(diff, std::abs(row(c) - batch(i, c)));
  }
  return diff;
}

/// The ccq::Error message `fn` throws ("" when it throws none).
inline std::string error_message(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

/// Enable telemetry for one test, restoring the previous setting.
struct MetricsGuard {
  MetricsGuard() : was(telemetry::metrics_enabled()) {
    telemetry::set_metrics_enabled(true);
  }
  ~MetricsGuard() { telemetry::set_metrics_enabled(was); }
  bool was;
};

}  // namespace ccq::serve
