// Deployment walkthrough: train → CCQ-quantize → compile to the integer
// engine → pack it into the serving artifact → round-trip through the
// inference server, verifying every hop matches the float simulation —
// then price it with the hardware model.
//
// This is the end-to-end story the paper's Fig 5 implies: the
// mixed-precision network CCQ finds is what an accelerator would actually
// run, at the power the MAC model predicts — and what `ccq serve-bench`
// actually serves, at the artifact size the bit packing predicts.
#include <cmath>
#include <filesystem>
#include <iostream>

#include "ccq/common/table.hpp"
#include "ccq/core/ccq.hpp"
#include "ccq/core/snapshot.hpp"
#include "ccq/data/synthetic.hpp"
#include "ccq/hw/integer_engine.hpp"
#include "ccq/hw/mac_model.hpp"
#include "ccq/models/simple.hpp"
#include "ccq/nn/loss.hpp"
#include "ccq/serve/artifact.hpp"
#include "ccq/serve/harness.hpp"

int main() {
  using namespace ccq;

  // ---- task + model ----
  data::SyntheticConfig dc;
  dc.num_classes = 10;
  dc.samples_per_class = 60;
  dc.height = dc.width = 16;
  dc.pixel_noise = 0.25f;
  dc.jitter = 1.6f;
  data::Dataset train = data::make_synthetic_vision(dc);
  data::Dataset val = train.take_tail(train.size() / 5);

  quant::QuantFactory factory{.policy = quant::Policy::kPact};
  quant::BitLadder ladder({8, 4, 2});
  models::ModelConfig mc;
  mc.num_classes = 10;
  mc.image_size = 16;
  mc.width_multiplier = 0.5f;
  auto model = models::make_simple_cnn(mc, factory, ladder);

  core::TrainConfig pre;
  pre.epochs = 10;
  pre.batch_size = 32;
  pre.sgd = {.lr = 0.03, .momentum = 0.9, .weight_decay = 5e-4};
  pre.lr_decay_every = 7;
  core::pretrain_cached(model, train, val, pre, "");
  std::cout << "fp32 baseline: "
            << core::evaluate(model, val).accuracy << "\n";

  // ---- CCQ down the ladder ----
  core::CcqConfig config;
  config.probes_per_step = 4;
  config.probe_samples = 96;
  config.max_recovery_epochs = 2;
  config.finetune.batch_size = 32;
  config.finetune.sgd = {.lr = 0.01, .momentum = 0.9, .weight_decay = 5e-4};
  config.hybrid_lr.base_lr = 0.01;
  const auto r = core::run_ccq(model, train, val, config);
  std::cout << "quantized (float sim): " << r.final_accuracy << " top-1 at "
            << r.final_compression << "x compression\n";

  // ---- compile to the integer datapath ----
  hw::IntegerNetwork engine = hw::IntegerNetwork::compile(model);
  const data::Batch batch = val.all();
  Tensor x = batch.images;
  x.apply([](float v) {  // 8-bit input quantization, same as the engine
    return std::clamp(std::round(v * 255.0f), 0.0f, 255.0f) / 255.0f;
  });
  model.set_training(false);
  Workspace ws;
  const Tensor float_logits = model.forward(x, ws);
  const Tensor int_logits = engine.forward(x);
  const float float_acc =
      nn::SoftmaxCrossEntropy::accuracy(float_logits, batch.labels);
  const float int_acc =
      nn::SoftmaxCrossEntropy::accuracy(int_logits, batch.labels);
  std::cout << "float-sim top-1 " << float_acc << " vs integer datapath "
            << int_acc << " (max logit diff "
            << max_abs_diff(float_logits, int_logits) << ")\n";

  // ---- pack the artifact and serve it ----
  // The float snapshot stores every weight as fp32; the artifact stores
  // the compiled network's k-bit codes bit-packed at each layer's final
  // ladder precision.  Loading it back and serving through the
  // dynamic-batching server must reproduce the integer datapath exactly.
  const std::string snapshot_path = "deploy_snapshot.bin";
  const std::string artifact_path = "deploy_model.ccqa";
  core::save_snapshot(model, snapshot_path);
  serve::export_artifact(engine, artifact_path);
  const auto snapshot_bytes = std::filesystem::file_size(snapshot_path);
  const auto artifact_bytes = std::filesystem::file_size(artifact_path);
  std::cout << "float snapshot " << snapshot_bytes << " B -> packed artifact "
            << artifact_bytes << " B ("
            << static_cast<double>(snapshot_bytes) /
                   static_cast<double>(artifact_bytes)
            << "x smaller)\n";

  serve::ServeConfig sc;
  sc.workers = 2;
  serve::InferenceServer server(sc);
  serve::ModelConfig smc;
  smc.max_batch = 8;
  server.load("deploy", artifact_path, smc);
  serve::ServeHarness harness(server, "deploy");
  const auto served = harness.run(
      x, {.producers = 2, .ramp = {}, .on_swap = {}, .priorities = {}});
  float max_diff = 0.0f;
  for (std::size_t i = 0; i < served.outputs.size(); ++i) {
    for (std::size_t c = 0; c < served.outputs[i].dim(0); ++c) {
      max_diff = std::max(
          max_diff, std::abs(served.outputs[i](c) - int_logits(i, c)));
    }
  }
  std::cout << "served " << served.outputs.size()
            << " requests through the batching server (max diff vs direct "
               "integer forward: "
            << max_diff << ")\n";

  // ---- price it ----
  const auto profile = hw::profile_registry(model.registry());
  const auto fp_profile =
      hw::uniform_profile(model.registry(), 32, 32, false);
  const double rate = 1000.0;
  const auto quant_power = hw::network_power(profile, rate);
  const auto fp_power = hw::network_power(fp_profile, rate);
  std::cout << "iso-throughput power @" << rate << " inf/s: fp32 "
            << 1e3 * fp_power.total_w << " mW -> quantized "
            << 1e3 * quant_power.total_w << " mW ("
            << fp_power.total_w / quant_power.total_w << "x less)\n";
  std::cout << "integer MACs per inference: "
            << engine.macs_per_sample(16, 16) << "\n";
  return 0;
}
