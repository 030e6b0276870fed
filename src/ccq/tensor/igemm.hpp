// Blocked low-bit integer GEMM — the deployed MAC datapath.
//
// The integer engine (hw/integer_engine) computes every conv / linear
// layer over k-bit integer codes; this kernel family gives that path the
// same blocked/tiled treatment the float side gets from tensor/gemm —
// plus explicitly vectorized microkernels behind a small named registry:
//
//   * weight codes are packed once (plan-compile / artifact-load time)
//     into an `IgemmPanel` whose layout is owned by the kernel that will
//     execute it (`igemm_pack`);
//   * activation codes arrive as `u8` / `i16` / `int32` buffers — a
//     column matrix (filled by the matching `im2col` overload) or, for a
//     whole convolution, the NCHW code images themselves (`IgemmConv`:
//     the vector kernels gather patches straight into their dot layout,
//     the scalar kernel lowers with `im2col` internally); the fused
//     datapath keeps layer outputs in their narrow code type;
//   * one igemm invocation is described by an `IgemmOp` — operand form,
//     shapes, packed panel, activation codes, epilogue (per-channel
//     float scale/bias, or fixed-point requantization writing the next
//     layer's codes directly), accumulator width, blocking — and
//     executed by `igemm_run`, which dispatches on the panel's kernel
//     variant;
//   * kernels: `scalar` (the cache-blocked rank-1-update loop, any
//     accumulator), `vec16` (register-tiled int16×int16→int32 widening
//     multiply-accumulate — `pmaddwd`-shaped, so SSE2/AVX2 intrinsics
//     where the feature gate allows and a compiler-vectorizable portable
//     loop elsewhere), `vec-packed` (weights and activations narrowed to
//     8-bit lanes for 2–4-bit layers, doubling arithmetic density per
//     vector op), and `auto` (pick the densest eligible kernel);
//   * accumulation is `int32` when the statically computed bound
//     max|a|·max|b|·k fits (see `igemm_fits_int32`), else `int64`.
//
// Exactness: integer arithmetic is associative, so *any* blocking
// factor, panel order, lane width or thread partition produces the same
// sums — provided no intermediate overflows.  The int32 bound guarantees
// that for every partial sum (each is a subset of at most k terms of
// magnitude <= max|a|·max|b|), and the vector kernels' eligibility rules
// (below) extend the same argument to their narrower intermediates, so
// results are bit-identical to a naive int64 triple loop for all kernels,
// blockings and thread counts (tests/igemm_property_test.cpp enforces
// this differentially).
//
// Activation codes are required to be representable in int32.  Codes on
// a quantized activation grid (<16 bits) always are; unbounded float
// activations already lose integer exactness in any float-held datapath
// beyond 2^24, so int32 is not a new restriction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ccq/common/exec.hpp"
#include "ccq/common/workspace.hpp"
#include "ccq/tensor/im2col.hpp"
#include "ccq/tensor/requant.hpp"

namespace ccq {

/// Accumulator width for one igemm call.  Pick with `igemm_fits_int32`;
/// running the int32 path past its bound is signed-overflow UB, which is
/// why the engine selects the accumulator from a static per-layer bound
/// instead of trusting runtime luck.
enum class IgemmAccum : std::uint8_t { kInt32, kInt64 };

/// Cache-blocking factors.  The defaults mirror tensor/gemm (an `nc`
/// column panel of int32 activations plus a `kc` depth slice stay
/// L2-resident); tests sweep them to prove blocking never changes bits.
/// The vector kernels honour `row_grain` (their parallel partition) and
/// ignore `kc` — their dot-product layout is depth-contiguous, so
/// panelised rank-1 blocking does not apply.  On a convolution op
/// (IgemmConv) they read `nc` as the cap on a position tile and
/// partition over tiles instead of `row_grain` rows.
struct IgemmBlocking {
  std::size_t nc = 256;        ///< column-panel width (clamped to kIgemmMaxNc)
  std::size_t kc = 128;        ///< depth-panel height
  std::size_t row_grain = 8;   ///< output rows per parallel_for chunk
};

/// Upper bound on the accumulator strip held per output row (stack
/// storage in the scalar microkernel); `nc` is clamped to it.
inline constexpr std::size_t kIgemmMaxNc = 512;

/// True when k products of magnitude <= max_abs_a * max_abs_b plus their
/// running sums provably fit an int32 accumulator:
/// max_abs_a · max_abs_b · k <= INT32_MAX, evaluated without overflow.
bool igemm_fits_int32(std::int64_t max_abs_a, std::int64_t max_abs_b,
                      std::size_t k);

/// Largest |code| in a code vector (0 when empty).
std::int32_t igemm_max_abs(const std::vector<std::int32_t>& codes);

// ---- kernel registry --------------------------------------------------------

/// Operand form of one igemm: which side the packed weight panel sits on.
///   kWX — C[m,n] = Σ_k W[m,k]·X[k,n], per-*row* epilogue (conv after
///         im2col: rows are output channels).
///   kXW — C[m,n] = Σ_k X[m,k]·W[k,n], per-*column* epilogue (linear
///         layers: rows are batch samples, columns output features).
enum class IgemmForm : std::uint8_t { kWX, kXW };

/// Named kernel variants.  `kAuto` is a selection policy, not an
/// executable kernel: `igemm_select_kernel` resolves it (and any
/// ineligible explicit request) to the densest eligible concrete kernel.
enum class IgemmKernel : std::uint8_t {
  kScalar,     ///< cache-blocked rank-1 updates; int32 or int64 accumulator
  kVec16,      ///< int16×int16→int32 widening-MAC dot kernel (SIMD)
  kVecPacked,  ///< 8-bit lanes (low-bit layers): 2× density over vec16
  kAuto,       ///< resolve per layer from bit width / code bounds
};

/// Registry introspection: the names `$CCQ_IGEMM_KERNEL` accepts, in
/// registry order ("scalar", "vec16", "vec-packed", "auto").
std::vector<std::string> igemm_kernel_names();

const char* igemm_kernel_str(IgemmKernel kernel);

/// Parse a kernel name.  Throws ccq::Error naming the unknown value and
/// listing the available kernels (mirroring the quant registry style).
IgemmKernel igemm_kernel_from_str(const std::string& name);

/// The kernel requested via `$CCQ_IGEMM_KERNEL` (kAuto when unset).
/// Throws the igemm_kernel_from_str error on an unknown name — callers
/// (plan finalize, artifact load) surface it with their own context.
IgemmKernel igemm_requested_kernel();

/// True when `kernel` can execute a problem with the given static
/// operand bounds exactly:
///   scalar     — always;
///   vec16      — int32 accumulator and activation codes known to lie in
///                [0, x_bound] with x_bound <= 32767 (codes narrow to
///                int16 lanes; pairwise pmaddwd intermediates stay under
///                the igemm_fits_int32 bound the caller established);
///   vec-packed — additionally w_max <= 127 (int8 weight lanes),
///                x_bound <= 255 (uint8 activation lanes) and
///                2·w_max·x_bound <= 32767 so pairwise products cannot
///                reach int16 saturation (true for every 2–4-bit ladder
///                rung, and for wider codes against small grids).
/// `x_bound` uses the engine's convention: > 0 asserts activation codes
/// lie in [0, x_bound]; 0 means unknown (vector kernels ineligible).
bool igemm_kernel_eligible(IgemmKernel kernel, std::int32_t w_max,
                           std::int64_t x_bound, IgemmAccum accum);

/// Resolve `requested` to a concrete executable kernel for a layer with
/// the given static bounds: kAuto (and any ineligible explicit request)
/// walks vec-packed → vec16 → scalar, preferring vec-packed only when
/// this build carries 8-bit SIMD for it (otherwise its portable loop is
/// no denser than vec16's).
IgemmKernel igemm_select_kernel(IgemmKernel requested, std::int32_t w_max,
                                std::int64_t x_bound, IgemmAccum accum);

/// True when this build has narrow-lane SIMD for vec-packed (SSSE3/AVX2
/// maddubs path) — the gate `igemm_select_kernel` consults for kAuto.
bool igemm_packed_simd();

// ---- packed weight panels ---------------------------------------------------

/// Weight codes packed for one kernel variant.  The layout is owned by
/// the kernel:
///   scalar     — i16, kWX: row-major rows×depth; kXW: transposed
///                depth×rows (the right-hand operand layout);
///   vec16      — i16, row-major rows×stride "dot layout" (each output
///                channel's codes contiguous over depth, zero-padded to
///                a lane-multiple stride) for both forms;
///   vec-packed — same dot layout in i8.
/// Padding zeros contribute zero products, so the padded dot is exact.
struct IgemmPanel {
  IgemmKernel kernel = IgemmKernel::kScalar;  ///< layout owner
  IgemmForm form = IgemmForm::kWX;
  std::size_t rows = 0;    ///< output channels / features
  std::size_t depth = 0;   ///< logical reduction length k
  std::size_t stride = 0;  ///< elements per packed row (>= depth)
  std::int32_t max_abs = 0;  ///< max |weight code|
  std::vector<std::int16_t> i16;  ///< scalar / vec16 storage
  std::vector<std::int8_t> i8;    ///< vec-packed storage

  bool empty() const { return i16.empty() && i8.empty(); }
};

/// Pack `rows`×`depth` row-major weight codes for `kernel`/`form`.
/// Throws ccq::Error naming the offending value when a code does not fit
/// the kernel's lane type (int16, or int8 for vec-packed) — packed
/// panels are a compile-time contract, not a silent narrowing.  `kernel`
/// must be concrete (resolve kAuto with `igemm_select_kernel` first).
IgemmPanel igemm_pack(const std::vector<std::int32_t>& codes,
                      std::size_t rows, std::size_t depth, IgemmForm form,
                      IgemmKernel kernel);

// ---- the op descriptor ------------------------------------------------------

/// Per-output-channel affine epilogue: C = float(acc) · scale + bias,
/// indexed by row (kWX) or column (kXW).
struct IgemmEpilogue {
  const float* scale = nullptr;
  const float* bias = nullptr;
};

/// A whole convolution as one kWX op: `images` NCHW code images of
/// `geometry` (C = in_channels, H, W) feed the panel in place of a
/// column matrix.  The op's `k` must equal `geometry.patch_size()` and
/// its `n` `geometry.out_spatial()`; the output holds `images` blocks of
/// m×n, image `b`'s element (row, pos) at `b·m·n + row·n + pos` — NCHW
/// again.  The vector kernels gather cache-sized tiles of output
/// positions (across image boundaries) straight into their dot layout
/// from a zero-padded copy of the input and run every weight row
/// against each tile, so the packed panel is reused across the whole
/// batch; the scalar kernel lowers each image with `im2col`.  Either way
/// the sums are the column-matrix op's, bit for bit.
struct IgemmConv {
  ConvGeometry geometry;
  std::size_t images = 1;
};

/// One igemm invocation, fully described.  The activation code matrix is
/// given through exactly one of `x` / `x8` / `x16`, in the form's
/// natural layout (kWX: k×n feeding the panel from the right; kXW: m×k
/// feeding it from the left) — the narrow overloads let the fused
/// integer datapath hand layer outputs straight back in without a
/// widening pass.  With `conv` set they instead point at the NCHW code
/// images and the output covers every image (see IgemmConv).  The
/// result goes to exactly one of:
///   * `c` — float epilogue: C = float(acc)·scale + bias (per row for
///     kWX, per column for kXW);
///   * `out8` / `out16` — requant epilogue: each accumulator is
///     requantized by the matching per-channel `requant` entry
///     (requant_apply, codes clamped to [0, requant_qmax]) and written
///     as the next layer's activation code.  The caller must have built
///     the Requant parameters against this op's true accumulator bound
///     (hw::make_requant) — that is what keeps acc·M + B inside int64.
/// `x_bound > 0` asserts the activation codes lie in [0, x_bound] (the
/// engine's statically threaded per-layer bound); 0 = unknown, which
/// confines execution to the scalar kernel.  `ws` provides pooled
/// scratch for the activation repacking, patch gathers and `im2col`
/// columns (nullptr → `Workspace::scratch()`).
struct IgemmOp {
  IgemmForm form = IgemmForm::kWX;
  std::size_t m = 0, n = 0, k = 0;  ///< C is m×n over reduction depth k
  const IgemmPanel* panel = nullptr;
  const std::int32_t* x = nullptr;    ///< int32 activation codes, or
  const std::uint8_t* x8 = nullptr;   ///< u8 codes (fused datapath), or
  const std::int16_t* x16 = nullptr;  ///< i16 codes (9–15-bit grids)
  float* c = nullptr;                 ///< float-epilogue output, or
  std::uint8_t* out8 = nullptr;       ///< requantized u8 codes, or
  std::int16_t* out16 = nullptr;      ///< requantized i16 codes
  IgemmEpilogue epilogue;
  const Requant* requant = nullptr;  ///< per-channel params (m or n entries)
  std::int32_t requant_qmax = 0;     ///< code ceiling: 2^act_bits − 1
  IgemmAccum accum = IgemmAccum::kInt64;
  IgemmBlocking blocking = {};
  std::int64_t x_bound = 0;
  Workspace* ws = nullptr;
  std::optional<IgemmConv> conv;  ///< set: x is NCHW images, not columns

  /// Point the op at activation codes of the matching type (sets x8,
  /// x16 or x).
  void set_codes(const std::uint8_t* codes) { x8 = codes; }
  void set_codes(const std::int16_t* codes) { x16 = codes; }
  void set_codes(const std::int32_t* codes) { x = codes; }
};

/// Execute an op with the kernel its panel was packed for.  Validates
/// that the panel matches the op (form, shapes), that a conv description
/// matches `k` / `n`, and that the kernel is eligible for the op's
/// bounds — a mismatch throws ccq::Error rather than risking inexact
/// lanes.  Parallel over output rows (conv ops: position tiles × weight
/// rows); deterministic and bit-identical across kernels, blockings and
/// thread counts.
void igemm_run(const IgemmOp& op, const ExecContext& ctx = ExecContext::global());

/// Pack int32 weight codes into a bare int16 panel in the *scalar*
/// kernel's layout.  `igemm_pack` owns layout per kernel variant and
/// routes here for the scalar rows; exposed for packing tests.
std::vector<std::int16_t> igemm_pack_panel(
    const std::vector<std::int32_t>& codes, std::size_t rows,
    std::size_t cols, bool transpose);

}  // namespace ccq
