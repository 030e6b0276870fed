// Tests for ccq::serve: packed artifact round-trips, crash-safe writes,
// and the registry-routed inference server — admission control, flush
// triggers, drain/shutdown semantics and the headline property that
// served outputs are bit-identical to a direct integer forward for any
// worker count and batch composition.  Hot-swap and wire-protocol
// coverage live in serve_swap_test.cpp / serve_net_test.cpp.
//
// Labelled `serve` and run under the TSan quick tier
// (`CCQ_THREADS=4 ctest -L "parallel|telemetry|serve"`).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "ccq/common/fileio.hpp"
#include "ccq/core/snapshot.hpp"
#include "ccq/models/simple.hpp"
#include "ccq/serve/artifact.hpp"
#include "ccq/serve/harness.hpp"

namespace ccq::serve {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const std::string& name) {
  return (fs::temp_directory_path() / name).string();
}

Tensor make_inputs(std::size_t n, std::size_t channels = 3,
                   std::size_t hw = 8) {
  Tensor x({n, channels, hw, hw});
  auto data = x.data();
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<float>((i * 2654435761u >> 8) & 255u) / 255.0f;
  }
  return x;
}

/// A small quantized CNN with a mixed 8/4/2 allocation (layer i sits at
/// ladder position i mod 3).  Untrained — serve correctness is about the
/// datapath, not accuracy — but forwarded once in train mode so
/// activation ranges are calibrated before compiling.
models::QuantModel make_mixed_model() {
  models::ModelConfig mc;
  mc.num_classes = 5;
  mc.image_size = 8;
  mc.width_multiplier = 0.25f;
  quant::QuantFactory factory{.policy = quant::Policy::kMinMax};
  auto model =
      models::make_simple_cnn(mc, factory, quant::BitLadder({8, 4, 2}));
  quant::LayerRegistry& registry = model.registry();
  for (std::size_t i = 0; i < registry.size(); ++i) {
    registry.set_ladder_pos(i, i % 3);
  }
  Workspace ws;
  model.set_training(true);
  model.forward(make_inputs(16), ws);
  model.set_training(false);
  return model;
}

float max_row_diff(const Tensor& row, const Tensor& batch, std::size_t i) {
  float diff = 0.0f;
  for (std::size_t c = 0; c < row.dim(0); ++c) {
    diff = std::max(diff, std::abs(row(c) - batch(i, c)));
  }
  return diff;
}

std::string error_message(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

// ---- bit packing -----------------------------------------------------------

TEST(PackCodesTest, RoundTripsExactly) {
  const std::vector<std::vector<std::int32_t>> cases = {
      {0},
      {7, 7, 7, 7},
      {-6, -4, -2, 0, 2, 4, 6},          // doubled even (zero-centred grid)
      {-7, -5, -3, -1, 1, 3, 5, 7},      // doubled odd (half-offset grid)
      {-254, 254, 0, 2, -128, 130},      // 8-bit doubled extremes
      {1, -1, 1, -1, 1},
      {123456, -123456, 0},
  };
  for (const auto& codes : cases) {
    EXPECT_EQ(unpack_codes(pack_codes(codes)), codes);
  }
}

TEST(PackCodesTest, DoubledCodesPackAtNativeWidth) {
  // Doubled codes of a 4-bit symmetric grid: even values in [-14, 14].
  std::vector<std::int32_t> codes;
  for (int i = 0; i < 100; ++i) codes.push_back(2 * ((i % 15) - 7));
  const PackedCodes packed = pack_codes(codes);
  EXPECT_EQ(packed.divisor % 2, 0u);  // parity folded into the divisor
  EXPECT_LE(packed.bits, 4);
  EXPECT_LE(packed.packed_bytes(), (codes.size() * 4 + 7) / 8);
  EXPECT_EQ(unpack_codes(packed), codes);
}

TEST(PackCodesTest, ConstantVectorPacksAtOneBit) {
  // Every code costs at least one bit on disk, so a stream's declared
  // count is always backed by bytes the loader can bound it by.
  const std::vector<std::int32_t> codes(1001, -42);
  const PackedCodes packed = pack_codes(codes);
  EXPECT_EQ(packed.bits, 1);
  EXPECT_EQ(packed.bytes.size(), (codes.size() + 7) / 8);
  EXPECT_EQ(unpack_codes(packed), codes);
}

// ---- artifact round-trip ---------------------------------------------------

TEST(ArtifactTest, RoundTripIsBitIdentical) {
  auto model = make_mixed_model();
  hw::IntegerNetwork direct = hw::IntegerNetwork::compile(model);
  const std::string path = temp_path("ccq_serve_roundtrip.ccqa");
  export_artifact(direct, path);
  hw::IntegerNetwork loaded = load_artifact(path);

  ASSERT_EQ(loaded.layer_count(), direct.layer_count());
  for (std::size_t l = 0; l < direct.layer_count(); ++l) {
    const auto& a = direct.plan(l);
    const auto& b = loaded.plan(l);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.weight_bits, b.weight_bits);
    EXPECT_EQ(a.weight_codes, b.weight_codes);
    EXPECT_EQ(a.channel_scale, b.channel_scale);
    EXPECT_EQ(a.bias, b.bias);
    EXPECT_EQ(a.act_bits, b.act_bits);
    EXPECT_EQ(a.act_clip, b.act_clip);
    // The requant record round-trips verbatim, and the rederived
    // integer fields (out_qmax / acc_bound) agree with the exporter's.
    EXPECT_EQ(a.requant_fused, b.requant_fused);
    EXPECT_EQ(a.out_qmax, b.out_qmax);
    EXPECT_EQ(a.acc_bound, b.acc_bound);
    ASSERT_EQ(a.requant.size(), b.requant.size());
    for (std::size_t c = 0; c < a.requant.size(); ++c) {
      EXPECT_EQ(a.requant[c].multiplier, b.requant[c].multiplier);
      EXPECT_EQ(a.requant[c].shift, b.requant[c].shift);
      EXPECT_EQ(a.requant[c].bias, b.requant[c].bias);
    }
  }

  const Tensor x = make_inputs(20);
  EXPECT_EQ(max_abs_diff(direct.forward(x), loaded.forward(x)), 0.0f);
  fs::remove(path);
}

TEST(ArtifactTest, EmptyFloatAndByteSectionsRoundTrip) {
  // A pooling layer carries empty channel_scale / bias vectors and an
  // empty weight-code stream that packs to zero bytes, so loading reads
  // them back through zero-length copies — which must not hand memcpy
  // the null data() of an empty vector (undefined even for zero bytes).
  hw::IntLayerPlan conv;
  conv.kind = hw::IntLayerPlan::Kind::kConv;
  conv.name = "conv0";
  conv.in_channels = 3;
  conv.out_channels = 2;
  conv.kernel = 3;
  conv.stride = 1;
  conv.pad = 1;
  conv.weight_bits = 2;
  conv.weight_codes.assign(2 * 3 * 9, 2);
  conv.channel_scale = {0.01f, 0.02f};
  conv.bias = {0.1f, -0.1f};
  conv.has_act = true;
  conv.act_bits = 4;
  conv.act_clip = 1.0f;
  hw::IntLayerPlan pool;
  pool.kind = hw::IntLayerPlan::Kind::kMaxPool;
  pool.name = "maxpool@1";
  const hw::IntegerNetwork direct =
      hw::IntegerNetwork::from_plans({conv, pool});
  ASSERT_TRUE(direct.plan(1).channel_scale.empty());
  ASSERT_TRUE(direct.plan(1).bias.empty());
  ASSERT_TRUE(pack_codes(direct.plan(1).weight_codes).bytes.empty());

  const std::string path = temp_path("ccq_serve_empty_sections.ccqa");
  export_artifact(direct, path);
  const hw::IntegerNetwork loaded = load_artifact(path);
  ASSERT_EQ(loaded.layer_count(), 2u);
  EXPECT_TRUE(loaded.plan(1).channel_scale.empty());
  EXPECT_TRUE(loaded.plan(1).bias.empty());
  EXPECT_EQ(loaded.plan(0).weight_codes, direct.plan(0).weight_codes);
  EXPECT_EQ(loaded.plan(0).bias, direct.plan(0).bias);
  const Tensor x = make_inputs(2);
  EXPECT_EQ(max_abs_diff(direct.forward(x), loaded.forward(x)), 0.0f);
  fs::remove(path);
}

TEST(ArtifactTest, AtLeast4xSmallerThanFloatSnapshot) {
  auto model = make_mixed_model();
  const std::string snapshot = temp_path("ccq_serve_size.snap");
  const std::string artifact = temp_path("ccq_serve_size.ccqa");
  core::save_snapshot(model, snapshot);
  export_artifact(model, artifact);
  const auto snapshot_bytes = fs::file_size(snapshot);
  const auto artifact_bytes = fs::file_size(artifact);
  EXPECT_GE(static_cast<double>(snapshot_bytes) /
                static_cast<double>(artifact_bytes),
            4.0)
      << "snapshot " << snapshot_bytes << " B, artifact " << artifact_bytes
      << " B";
  fs::remove(snapshot);
  fs::remove(artifact);
}

TEST(ArtifactTest, ChecksumDetectsCorruption) {
  auto model = make_mixed_model();
  const std::string path = temp_path("ccq_serve_corrupt.ccqa");
  export_artifact(model, path);

  // Flip one payload byte past the header.
  std::string bytes;
  {
    std::ifstream is(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(is), {});
  }
  bytes[bytes.size() / 2] ^= 0x40;
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  const std::string message = error_message([&] { load_artifact(path); });
  EXPECT_NE(message.find(path), std::string::npos) << message;
  EXPECT_NE(message.find("checksum"), std::string::npos) << message;
  fs::remove(path);
}

TEST(ArtifactTest, OldVersionRejectedWithNamedDiagnostic) {
  // A v1 artifact predates the fused requantization record: silently
  // parsing it with the current field layouts would misload, so the
  // version gate must fire first (before any payload parsing) and name
  // both versions.
  auto model = make_mixed_model();
  const std::string path = temp_path("ccq_serve_oldversion.ccqa");
  export_artifact(model, path);

  // Rewrite the header's version field (bytes 4..7, after the magic).
  std::string bytes;
  {
    std::ifstream is(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(is), {});
  }
  const std::uint32_t old_version = 1;
  std::memcpy(bytes.data() + 4, &old_version, sizeof(old_version));
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  const std::string message = error_message([&] { load_artifact(path); });
  EXPECT_NE(message.find(path), std::string::npos) << message;
  EXPECT_NE(message.find("unsupported version 1"), std::string::npos)
      << message;
  EXPECT_NE(message.find("version " + std::to_string(kArtifactVersion)),
            std::string::npos)
      << message;
  fs::remove(path);
}

TEST(ArtifactTest, TruncationDetected) {
  auto model = make_mixed_model();
  const std::string path = temp_path("ccq_serve_truncated.ccqa");
  export_artifact(model, path);
  fs::resize_file(path, fs::file_size(path) / 2);
  const std::string message = error_message([&] { load_artifact(path); });
  EXPECT_NE(message.find(path), std::string::npos) << message;
  EXPECT_NE(message.find("truncated"), std::string::npos) << message;
  fs::remove(path);
}

TEST(ArtifactTest, RejectsForeignFiles) {
  const std::string path = temp_path("ccq_serve_notartifact.bin");
  {
    std::ofstream os(path, std::ios::binary);
    os << "definitely not a packed model artifact";
  }
  const std::string message = error_message([&] { load_artifact(path); });
  EXPECT_NE(message.find("magic"), std::string::npos) << message;
  fs::remove(path);
}

/// Little-endian writer for hand-built artifact bytes.
struct RawBytes {
  std::string bytes;
  template <typename T>
  RawBytes& pod(T v) {
    bytes.append(reinterpret_cast<const char*>(&v), sizeof(v));
    return *this;
  }
  RawBytes& varint(std::uint64_t v) {
    for (; v >= 0x80; v >>= 7) pod(static_cast<std::uint8_t>(v | 0x80));
    return pod(static_cast<std::uint8_t>(v));
  }
};

/// One maxpool layer record whose channel-scale section declares
/// `scale_count` floats, whose code stream declares `code_count` codes
/// at `code_bits` bits in zero bytes, and whose requant record (present
/// when `requant_count` > 0) declares that many channels.  Only the
/// declared counts are hostile; no section carries their data.
std::string pool_record(std::uint64_t scale_count, std::uint64_t requant_count,
                        std::uint64_t code_count = 0,
                        std::uint8_t code_bits = 0) {
  RawBytes r;
  r.varint(1).pod('p');  // name
  r.pod(static_cast<std::uint8_t>(hw::IntLayerPlan::Kind::kMaxPool));
  r.pod(std::uint8_t{32}).pod(std::uint8_t{0}).pod(std::uint8_t{32});
  r.pod(0.0f);  // act_clip
  for (std::uint64_t dim : {0, 0, 1, 1, 0, 0, 0, 2, 2}) r.varint(dim);
  r.varint(0).varint(1).pod(code_bits).varint(code_count).varint(0);
  r.varint(scale_count).varint(0);  // scales, biases
  r.pod(static_cast<std::uint8_t>(requant_count > 0 ? 1 : 0));
  if (requant_count > 0) r.varint(requant_count);
  return r.bytes;
}

/// A well-formed record for layer 'g' of `kind` — a 1→1-channel conv
/// (one 1-bit weight code per tap, unit scale) or a max/avg pool — with
/// the given window and stride, so only the geometry can be hostile.
std::string geometry_record(hw::IntLayerPlan::Kind kind, std::uint64_t kernel,
                            std::uint64_t stride) {
  const bool conv = kind == hw::IntLayerPlan::Kind::kConv;
  RawBytes r;
  r.varint(1).pod('g');  // name
  r.pod(static_cast<std::uint8_t>(kind));
  r.pod(std::uint8_t{2}).pod(std::uint8_t{0}).pod(std::uint8_t{0});
  r.pod(0.0f);  // act_clip
  const std::uint64_t c = conv ? 1 : 0, p = 1 - c;
  // in/out channels, kernel, stride, pad, in/out features, pool window
  const std::uint64_t dims[] = {c, c, c * kernel, c * stride, 0,
                                0, 0, p * kernel, p * stride};
  for (std::uint64_t dim : dims) r.varint(dim);
  const std::uint64_t codes = c * kernel * kernel;
  r.varint(0).varint(1).pod(static_cast<std::uint8_t>(codes > 0 ? 1 : 0));
  r.varint(codes).varint((codes + 7) / 8);
  for (std::uint64_t b = 0; b < (codes + 7) / 8; ++b) r.pod(std::uint8_t{0});
  r.varint(c);  // channel scales
  if (conv) r.pod(1.0f);
  r.varint(c);  // biases
  if (conv) r.pod(0.0f);
  r.pod(std::uint8_t{0});  // no requant record
  return r.bytes;
}

/// Write a CCQA file whose header declares `declared_bytes` of payload
/// (and carries the payload's true FNV-1a checksum).
void write_hostile(const std::string& path, std::uint32_t version,
                   std::uint32_t layer_count, const std::string& payload,
                   std::uint64_t declared_bytes) {
  RawBytes file;
  file.bytes.assign(kArtifactMagic, sizeof(kArtifactMagic));
  file.pod(version).pod(layer_count).pod(declared_bytes);
  file.pod(fnv1a(payload.data(), payload.size()));
  file.bytes += payload;
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(file.bytes.data(), static_cast<std::streamsize>(file.bytes.size()));
}

/// A one-rung table — rung count 1, trail step −1 (zigzag 1), accuracy
/// 0 — ahead of `records`, as every artifact payload starts.
std::string one_rung(const std::string& records) {
  RawBytes r;
  r.varint(1).varint(1).pod(0.0f);
  return r.bytes + records;
}

TEST(ArtifactTest, HostileDeclaredSizesFailTyped) {
  // Every size an artifact declares is bounded by the bytes behind it
  // before anything is allocated for it, so a hostile header or section
  // count fails with a typed error naming the file and the bound it
  // broke — never bad_alloc or length_error.
  constexpr std::uint64_t kHuge = std::uint64_t{1} << 62;
  struct Case {
    const char* what;
    std::uint32_t layer_count;
    std::string payload;
    bool empty_payload;  // header only: declare kHuge bytes, ship none
    std::string expect;  // the bound's diagnostic
  };
  RawBytes many_rungs;
  many_rungs.varint(std::uint64_t{1} << 40);  // rung count
  many_rungs.bytes += pool_record(0, 0);
  const std::vector<Case> cases = {
      {"2^62-byte payload", 1, "", true,
       "header declares 4611686018427387904 bytes"},
      {"2^32-1 layers", 0xFFFFFFFFu, one_rung(pool_record(0, 0)), false,
       "declares 4294967295 layers"},
      {"2^62 floats", 1, one_rung(pool_record(kHuge, 0)), false,
       "declares 4611686018427387904 floats"},
      {"2^40 rungs", 1, many_rungs.bytes, false,
       "declares 1099511627776 rungs"},
      {"2^40 requant channels", 1,
       one_rung(pool_record(0, std::uint64_t{1} << 40)), false,
       "declares 1099511627776 requant channels"},
      {"2^61 8-bit codes in 0 bytes", 1,
       one_rung(pool_record(0, 0, std::uint64_t{1} << 61, 8)), false,
       "declares 2305843009213693952 codes (at least 1 bit each)"},
      // A zero-bit stream would cost no bytes per code, so nothing could
      // bound its count; a stream wider than 32 bits is one pack_codes
      // never writes (and past 63 would shift beyond the unpack word).
      {"2^34 zero-bit codes", 1,
       one_rung(pool_record(0, 0, std::uint64_t{1} << 34, 0)), false,
       "declares 17179869184 codes at 0 bits"},
      {"64-bit codes", 1, one_rung(pool_record(0, 0, 1, 64)), false,
       "declares 1 codes at 64 bits"},
      // Checksummed, well-formed records whose geometry the engine would
      // divide by (conv stride, pool window) or pool over (pool kernel):
      // caught at parse time, naming the layer, before any request.
      {"stride-0 conv", 1,
       one_rung(geometry_record(hw::IntLayerPlan::Kind::kConv, 1, 0)), false,
       "(layer 'g'): conv kernel 1 with stride 0: both must be positive "
       "(layer index 0, kind conv)"},
      {"kernel-0 conv", 1,
       one_rung(geometry_record(hw::IntLayerPlan::Kind::kConv, 0, 1)), false,
       "(layer 'g'): conv kernel 0 with stride 1: both must be positive "
       "(layer index 0, kind conv)"},
      {"zero-kernel maxpool", 1,
       one_rung(geometry_record(hw::IntLayerPlan::Kind::kMaxPool, 0, 2)),
       false,
       "(layer 'g'): pool kernel 0 with stride 2: both must be positive "
       "(layer index 0, kind maxpool)"},
      {"zero-kernel avgpool", 1,
       one_rung(geometry_record(hw::IntLayerPlan::Kind::kAvgPool, 0, 2)),
       false,
       "(layer 'g'): pool kernel 0 with stride 2: both must be positive "
       "(layer index 0, kind avgpool)"},
      {"zero-stride avgpool", 1,
       one_rung(geometry_record(hw::IntLayerPlan::Kind::kAvgPool, 2, 0)),
       false,
       "(layer 'g'): pool kernel 2 with stride 0: both must be positive "
       "(layer index 0, kind avgpool)"},
  };
  const std::string path = temp_path("ccq_serve_hostile.ccqa");
  for (const Case& c : cases) {
    write_hostile(path, kArtifactVersion, c.layer_count, c.payload,
                  c.empty_payload ? kHuge : c.payload.size());
    for (const auto& load : std::vector<std::function<void()>>{
             [&] { load_artifact(path); }, [&] { inspect_artifact(path); }}) {
      const std::string message = error_message(load);
      EXPECT_NE(message.find(path), std::string::npos)
          << c.what << ": " << message;
      EXPECT_NE(message.find(c.expect), std::string::npos)
          << c.what << ": " << message;
    }
  }
  fs::remove(path);
}

// ---- crash-safe writes -----------------------------------------------------

TEST(AtomicWriteTest, FailedWriteKeepsPreviousFile) {
  const std::string path = temp_path("ccq_serve_atomic.txt");
  atomic_write_file(path, [](std::ostream& os) { os << "generation 1"; });
  EXPECT_THROW(atomic_write_file(path,
                                 [](std::ostream& os) {
                                   os << "partial";
                                   throw Error("simulated crash mid-write");
                                 }),
               Error);
  std::ifstream is(path);
  std::string content;
  std::getline(is, content);
  EXPECT_EQ(content, "generation 1");
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  fs::remove(path);
}

TEST(AtomicWriteTest, SnapshotSaveLeavesNoTempFile) {
  auto model = make_mixed_model();
  const std::string path = temp_path("ccq_serve_snapshot.snap");
  core::save_snapshot(model, path);
  EXPECT_TRUE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  EXPECT_TRUE(core::load_snapshot(model, path));
  fs::remove(path);
}

// ---- snapshot load diagnostics ---------------------------------------------

TEST(SnapshotErrorTest, ShapeMismatchNamesParameterAndShapes) {
  auto narrow = make_mixed_model();
  const std::string path = temp_path("ccq_serve_mismatch.snap");
  core::save_snapshot(narrow, path);

  models::ModelConfig mc;
  mc.num_classes = 5;
  mc.image_size = 8;
  mc.width_multiplier = 0.5f;  // wider: every conv shape differs
  quant::QuantFactory factory{.policy = quant::Policy::kMinMax};
  auto wide =
      models::make_simple_cnn(mc, factory, quant::BitLadder({8, 4, 2}));
  const std::string message =
      error_message([&] { core::load_snapshot(wide, path); });
  EXPECT_NE(message.find(path), std::string::npos) << message;
  EXPECT_NE(message.find("expects"), std::string::npos) << message;
  EXPECT_NE(message.find("found"), std::string::npos) << message;
  fs::remove(path);
}

TEST(SnapshotErrorTest, OffLadderBitsNameTheLayer) {
  auto model = make_mixed_model();  // layer 1 sits at 4 bits
  const std::string path = temp_path("ccq_serve_ladder.snap");
  core::save_snapshot(model, path);

  models::ModelConfig mc;
  mc.num_classes = 5;
  mc.image_size = 8;
  mc.width_multiplier = 0.25f;
  quant::QuantFactory factory{.policy = quant::Policy::kMinMax};
  auto other =
      models::make_simple_cnn(mc, factory, quant::BitLadder({8, 2}));
  const std::string message =
      error_message([&] { core::load_snapshot(other, path); });
  EXPECT_NE(message.find(model.registry().unit(1).name), std::string::npos)
      << message;
  EXPECT_NE(message.find("ladder"), std::string::npos) << message;
  fs::remove(path);
}

// ---- inference server ------------------------------------------------------

TEST(ServeTest, ServedOutputsBitIdenticalForAnyWorkerCount) {
  auto model = make_mixed_model();
  hw::IntegerNetwork direct = hw::IntegerNetwork::compile(model);
  const Tensor x = make_inputs(24);
  const Tensor reference = direct.forward(x);

  for (std::size_t workers : {1u, 2u, 4u}) {
    ServeConfig config;
    config.workers = workers;
    InferenceServer server(config);
    ModelConfig mc;
    mc.max_batch = 5;  // batches never align with producer strides
    mc.max_delay_us = 200;
    server.load("mixed", hw::IntegerNetwork::compile(model), mc);
    ServeHarness harness(server, "mixed");
    const HarnessReport report = harness.run(x, {.producers = 4});
    ASSERT_EQ(report.outputs.size(), x.dim(0));
    for (std::size_t i = 0; i < report.outputs.size(); ++i) {
      EXPECT_EQ(max_row_diff(report.outputs[i], reference, i), 0.0f)
          << "sample " << i << " with " << workers << " workers";
      EXPECT_EQ(report.versions[i], 1u);
    }
  }
}

TEST(ServeTest, ServedOutputsMatchThePrePackedNaiveForward) {
  // Golden check for the igemm datapath end to end: export the mixed
  // 8/4/2 SimpleCNN, reload it (the load path selects a kernel per layer
  // and re-packs the weight panels in that kernel's layout), serve it —
  // and require every served logit to be bit-identical to
  // `forward_reference`, the engine walk with a naive int64 MAC step in
  // place of the blocked kernels.
  auto model = make_mixed_model();
  hw::IntegerNetwork direct = hw::IntegerNetwork::compile(model);
  const Tensor x = make_inputs(24);
  const Tensor golden = direct.forward_reference(x);

  const std::string path = temp_path("ccq_serve_igemm_golden.ccqa");
  export_artifact(direct, path);
  hw::IntegerNetwork loaded = load_artifact(path);
  for (std::size_t l = 0; l < loaded.layer_count(); ++l) {
    const auto& plan = loaded.plan(l);
    if (plan.kind != hw::IntLayerPlan::Kind::kConv &&
        plan.kind != hw::IntLayerPlan::Kind::kLinear) {
      continue;
    }
    EXPECT_FALSE(plan.panel.empty())
        << "layer " << plan.name << " loaded without a packed panel";
    EXPECT_EQ(plan.panel.rows * plan.panel.depth, plan.weight_codes.size())
        << "layer " << plan.name << " panel shape mismatch";
    EXPECT_EQ(plan.panel.kernel, plan.igemm_kernel) << plan.name;
  }

  ServeConfig config;
  config.workers = 2;
  InferenceServer server(config);
  ModelConfig mc;
  mc.max_batch = 5;
  mc.max_delay_us = 200;
  server.load("golden", std::move(loaded), mc);
  ServeHarness harness(server, "golden");
  const HarnessReport report = harness.run(x, {.producers = 3});
  ASSERT_EQ(report.outputs.size(), x.dim(0));
  for (std::size_t i = 0; i < report.outputs.size(); ++i) {
    EXPECT_EQ(max_row_diff(report.outputs[i], golden, i), 0.0f)
        << "served sample " << i << " diverged from the naive reference";
  }
  fs::remove(path);
}

TEST(ServeTest, FlushesWhenBatchFills) {
  auto model = make_mixed_model();
  InferenceServer server;
  ModelConfig mc;
  mc.max_batch = 4;
  mc.max_delay_us = 5'000'000;  // only a full batch can flush this fast
  const ModelHandle handle =
      server.load("fill", hw::IntegerNetwork::compile(model), mc);

  const Tensor x = make_inputs(4);
  std::vector<Tensor> inputs(4), outputs(4);
  std::vector<std::future<void>> replies;
  const Shape chw{x.dim(1), x.dim(2), x.dim(3)};
  for (std::size_t i = 0; i < 4; ++i) {
    inputs[i] = Tensor(chw);
    const auto src = x.data().subspan(i * shape_numel(chw), shape_numel(chw));
    std::copy(src.begin(), src.end(), inputs[i].data().begin());
    replies.push_back(server.submit(handle, inputs[i], outputs[i]));
  }
  // The 4th submit fills the batch; replies must arrive long before the
  // 5-second delay deadline.
  for (auto& reply : replies) {
    ASSERT_EQ(reply.wait_for(std::chrono::seconds(2)),
              std::future_status::ready);
  }
}

TEST(ServeTest, FlushesOnDelayDeadline) {
  auto model = make_mixed_model();
  InferenceServer server;
  ModelConfig mc;
  mc.max_batch = 64;  // never fills: only the deadline can flush
  mc.max_delay_us = 20'000;
  server.load("deadline", hw::IntegerNetwork::compile(model), mc);

  Tensor input = make_inputs(1);
  Tensor sample({input.dim(1), input.dim(2), input.dim(3)});
  std::copy(input.data().begin(), input.data().end(), sample.data().begin());
  Tensor out;
  // Submit through the name-resolving convenience overload.
  auto reply = server.submit("deadline", sample, out);
  ASSERT_EQ(reply.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  reply.get();
  EXPECT_EQ(out.rank(), 1u);
}

TEST(ServeTest, RejectsWhenQueueIsFullNamingTheModel) {
  auto model = make_mixed_model();
  InferenceServer server;
  ModelConfig mc;
  mc.max_batch = 16;          // larger than capacity …
  mc.queue_capacity = 4;      // … so the queue fills while the worker
  mc.max_delay_us = 100'000;  // waits out the batch-fill deadline
  const ModelHandle handle =
      server.load("bounded", hw::IntegerNetwork::compile(model), mc);

  const Shape chw{3, 8, 8};
  std::vector<Tensor> inputs, outputs;
  for (std::size_t i = 0; i < 5; ++i) {
    inputs.push_back(make_inputs(1).reshaped(chw));
    outputs.emplace_back();
  }
  std::vector<std::future<void>> replies;
  for (std::size_t i = 0; i < 4; ++i) {
    replies.push_back(server.submit(handle, inputs[i], outputs[i]));
  }
  EXPECT_EQ(server.queue_depth("bounded"), 4u);
  const std::string message =
      error_message([&] { server.submit(handle, inputs[4], outputs[4]); });
  EXPECT_NE(message.find("bounded"), std::string::npos) << message;
  EXPECT_NE(message.find("capacity 4"), std::string::npos) << message;
  server.shutdown();  // flushes the queued four immediately
  for (auto& reply : replies) reply.get();
}

TEST(ServeTest, DrainWaitsForAllReplies) {
  auto model = make_mixed_model();
  ServeConfig config;
  config.workers = 2;
  InferenceServer server(config);
  ModelConfig mc;
  mc.max_batch = 3;
  mc.max_delay_us = 500;
  server.load("drain", hw::IntegerNetwork::compile(model), mc);
  ServeHarness harness(server, "drain");
  // run() already joins all futures; drain() afterwards must return
  // immediately with nothing queued or in flight.
  harness.run(make_inputs(12), {.producers = 3});
  server.drain();
  EXPECT_EQ(server.queue_depth(), 0u);
}

TEST(ServeTest, ShutdownServesQueuedRequestsThenRejects) {
  auto model = make_mixed_model();
  InferenceServer server;
  ModelConfig mc;
  mc.max_batch = 16;
  mc.max_delay_us = 60'000'000;  // effectively never flushes on its own
  const ModelHandle handle =
      server.load("slow", hw::IntegerNetwork::compile(model), mc);

  // Build every input/output up front: the server keeps pointers into
  // these vectors, so they must not reallocate after the first submit.
  const Shape chw{3, 8, 8};
  std::vector<Tensor> inputs, outputs(3);
  for (std::size_t i = 0; i < 3; ++i) {
    inputs.push_back(make_inputs(1).reshaped(chw));
  }
  std::vector<std::future<void>> replies;
  for (std::size_t i = 0; i < 3; ++i) {
    replies.push_back(server.submit(handle, inputs[i], outputs[i]));
  }
  server.shutdown();  // graceful: queued work is served before exit
  for (auto& reply : replies) reply.get();
  for (const Tensor& out : outputs) EXPECT_EQ(out.rank(), 1u);

  Tensor late_in = make_inputs(1).reshaped(chw);
  Tensor late_out;
  EXPECT_THROW(server.submit(handle, late_in, late_out), ServerStoppedError);
}

TEST(ServeTest, RejectsMismatchedSampleShapes) {
  auto model = make_mixed_model();
  InferenceServer server;
  const ModelHandle handle =
      server.load("shapes", hw::IntegerNetwork::compile(model));
  Tensor batch_in = make_inputs(1);
  Tensor out;
  EXPECT_THROW(server.submit(handle, batch_in, out), Error);  // rank 4

  Tensor first = make_inputs(1).reshaped({3, 8, 8});
  auto reply = server.submit(handle, first, out);
  Tensor odd({3, 4, 4});
  Tensor odd_out;
  EXPECT_THROW(server.submit(handle, odd, odd_out), Error);
  reply.get();
}

TEST(ServeTest, WrongGeometryFirstRequestRejectedWithoutPoisoningPin) {
  auto model = make_mixed_model();
  InferenceServer server;
  const ModelHandle handle =
      server.load("geometry", hw::IntegerNetwork::compile(model));
  // A wrong-geometry *first* request must be rejected at admission (the
  // network expects 3 input channels), not pin its shape — over the TCP
  // front end it is untrusted, and an unchecked pin would both size the
  // conv loops from its dims and reject every later well-formed submit.
  Tensor bogus({7, 8, 8});
  Tensor bogus_out;
  const std::string message =
      error_message([&] { server.submit(handle, bogus, bogus_out); });
  EXPECT_NE(message.find("channels"), std::string::npos) << message;

  Tensor good = make_inputs(1).reshaped({3, 8, 8});
  Tensor out;
  server.submit(handle, good, out).get();  // pin is clean: this serves
  EXPECT_EQ(out.rank(), 1u);
  EXPECT_EQ(out.dim(0), 5u);
}

TEST(ServeTest, ZeroDimSampleRejectedAtAdmission) {
  auto model = make_mixed_model();
  InferenceServer server;
  const ModelHandle handle =
      server.load("zerodim", hw::IntegerNetwork::compile(model));
  Tensor zero({3, 0, 8});
  Tensor out;
  const std::string message =
      error_message([&] { server.submit(handle, zero, out); });
  EXPECT_NE(message.find("zero dimension"), std::string::npos) << message;
}

TEST(ServeTest, SubmitToUnknownNameThrowsModelNotFound) {
  InferenceServer server;
  Tensor sample({3, 8, 8});
  Tensor out;
  const std::string message =
      error_message([&] { server.submit("absent", sample, out); });
  EXPECT_NE(message.find("absent"), std::string::npos) << message;
  EXPECT_THROW(server.resolve("absent"), ModelNotFoundError);
}

TEST(ServeTest, HarnessRetriesRejectionsToCompletion) {
  auto model = make_mixed_model();
  InferenceServer server;
  ModelConfig mc;
  mc.max_batch = 2;
  mc.max_delay_us = 100;
  mc.queue_capacity = 2;  // tiny: 4 producers must hit rejections
  server.load("tiny", hw::IntegerNetwork::compile(model), mc);
  ServeHarness harness(server, "tiny");
  const Tensor x = make_inputs(32);
  const HarnessReport report = harness.run(x, {.producers = 4});
  EXPECT_EQ(report.requests, 32u);
  ASSERT_EQ(report.outputs.size(), 32u);
  for (const Tensor& out : report.outputs) EXPECT_EQ(out.rank(), 1u);
}

TEST(ServeTest, TwoModelsServeConcurrentlyOnOnePool) {
  // Two distinct artifacts behind one shared worker pool: interleaved
  // traffic to both names must stay bit-identical to each model's own
  // direct forward (requests are never cross-batched between models).
  auto mixed = make_mixed_model();
  hw::IntegerNetwork mixed_net = hw::IntegerNetwork::compile(mixed);

  models::ModelConfig mc8;
  mc8.num_classes = 5;
  mc8.image_size = 8;
  mc8.width_multiplier = 0.25f;
  quant::QuantFactory factory{.policy = quant::Policy::kMinMax};
  auto uniform =
      models::make_simple_cnn(mc8, factory, quant::BitLadder({8, 4, 2}));
  {
    quant::LayerRegistry& registry = uniform.registry();
    for (std::size_t i = 0; i < registry.size(); ++i) {
      registry.set_ladder_pos(i, 0);  // uniform 8-bit: differs from mixed
    }
    Workspace ws;
    uniform.set_training(true);
    uniform.forward(make_inputs(16), ws);
    uniform.set_training(false);
  }
  hw::IntegerNetwork uniform_net = hw::IntegerNetwork::compile(uniform);

  const Tensor x = make_inputs(16);
  const Tensor ref_mixed = mixed_net.forward(x);
  const Tensor ref_uniform = uniform_net.forward(x);
  ASSERT_NE(max_abs_diff(ref_mixed, ref_uniform), 0.0f)
      << "models must be distinguishable for this test to mean anything";

  ServeConfig config;
  config.workers = 2;
  InferenceServer server(config);
  ModelConfig serve_mc;
  serve_mc.max_batch = 3;
  serve_mc.max_delay_us = 200;
  server.load("mixed", std::move(mixed_net), serve_mc);
  server.load("uniform", std::move(uniform_net), serve_mc);
  EXPECT_EQ(server.registry().names().size(), 2u);

  ServeHarness drive_mixed(server, "mixed");
  ServeHarness drive_uniform(server, "uniform");
  HarnessReport report_mixed, report_uniform;
  std::thread t([&] { report_mixed = drive_mixed.run(x, {.producers = 2}); });
  report_uniform = drive_uniform.run(x, {.producers = 2});
  t.join();

  ASSERT_EQ(report_mixed.outputs.size(), x.dim(0));
  ASSERT_EQ(report_uniform.outputs.size(), x.dim(0));
  for (std::size_t i = 0; i < x.dim(0); ++i) {
    EXPECT_EQ(max_row_diff(report_mixed.outputs[i], ref_mixed, i), 0.0f)
        << "mixed sample " << i;
    EXPECT_EQ(max_row_diff(report_uniform.outputs[i], ref_uniform, i), 0.0f)
        << "uniform sample " << i;
  }
}

}  // namespace
}  // namespace ccq::serve
