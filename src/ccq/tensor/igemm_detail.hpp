// Internal seam between the igemm dispatch layer (igemm.cpp) and the
// vectorized microkernels (igemm_kernels.cpp, compiled with its own
// optimisation flags).  Not installed API — include igemm.hpp instead.
#pragma once

#include <cstddef>
#include <cstdint>

#include "ccq/tensor/igemm.hpp"

// 8-bit-lane SIMD (SSSE3 maddubs; AVX2 implies SSSE3).  vec-packed
// exists only where this holds: without it the kernel has no loop, is
// never eligible and is never selected.
#if defined(__SSSE3__) || defined(__AVX2__)
#define CCQ_IGEMM_PACKED_SIMD 1
#else
#define CCQ_IGEMM_PACKED_SIMD 0
#endif

namespace ccq::igemm_detail {

inline constexpr bool kPackedSimd = CCQ_IGEMM_PACKED_SIMD;

/// Dot-layout row padding (elements): depth is rounded up to a lane
/// multiple so the inner loops carry no scalar tail.  16 int16 lanes
/// covers SSE2 (8) and AVX2 (16); 32 8-bit lanes covers SSSE3 (16) and
/// AVX2 (32).  Padding zeros contribute zero products — exactness holds.
inline constexpr std::size_t kVec16Pad = 16;
inline constexpr std::size_t kPackedPad = 32;

inline constexpr std::size_t round_up(std::size_t n, std::size_t to) {
  return (n + to - 1) / to * to;
}

// ---- epilogue policies ------------------------------------------------------
// Every kernel finishes each output element by calling `store(idx, ch,
// acc)` on one of these: idx is the flat position in the m×n output, ch
// the epilogue channel (row for kWX, column for kXW).  Keeping the
// policy a template parameter lets the same microkernel bodies serve
// the float datapath and the fused requantizing one.

/// C[idx] = float(acc)·scale[ch] + bias[ch] — the training-parity
/// epilogue (identical expression to the naive engine loop).
struct FloatEpilogue {
  const float* scale;
  const float* bias;
  float* c;
  template <typename Acc>
  void store(std::size_t idx, std::size_t ch, Acc acc) const {
    c[idx] = static_cast<float>(acc) * scale[ch] + bias[ch];
  }
};

/// out[idx] = requant_apply(acc, rq[ch], qmax) — the fused epilogue
/// writing the next layer's activation codes directly (see
/// tensor/requant.hpp for why this is exact for any blocking/threading).
template <typename Out>
struct RequantEpilogue {
  const Requant* rq;
  Out* out;
  std::int32_t qmax;
  template <typename Acc>
  void store(std::size_t idx, std::size_t ch, Acc acc) const {
    out[idx] = static_cast<Out>(
        requant_apply(static_cast<std::int64_t>(acc), rq[ch], qmax));
  }
};

/// Invoke `f` with the op's epilogue policy object (igemm_run has
/// already validated that exactly one output target is set).
template <typename F>
void dispatch_epilogue(const IgemmOp& op, F&& f) {
  if (op.requant != nullptr) {
    if (op.out8 != nullptr) {
      f(RequantEpilogue<std::uint8_t>{op.requant, op.out8, op.requant_qmax});
    } else {
      f(RequantEpilogue<std::int16_t>{op.requant, op.out16, op.requant_qmax});
    }
  } else {
    f(FloatEpilogue{op.epilogue.scale, op.epilogue.bias, op.c});
  }
}

/// Invoke `f` with the op's typed activation-code pointer (u8 / i16 /
/// int32 — exactly one is set when k > 0; the int32 branch also covers
/// the degenerate k == 0 op with no codes at all).
template <typename F>
void with_x(const IgemmOp& op, F&& f) {
  if (op.x8 != nullptr) {
    f(op.x8);
  } else if (op.x16 != nullptr) {
    f(op.x16);
  } else {
    f(op.x);
  }
}

/// Execute a validated vector-kernel op (igemm_run has already checked
/// panel/form/shape/eligibility) over the panel's dot-layout weight rows
/// `w`: vec16 is <int16, int16>, vec-packed <uint8, int8>.  The
/// activation side is repacked into a Workspace-leased `TX` dot panel
/// (or, for a conv op, gathered tile by tile), then the register-tiled
/// dot loops run parallel over output rows.  Instantiated for vec16
/// always and for vec-packed only where kPackedSimd holds.
template <typename TX, typename TW>
void run_vec(const IgemmOp& op, const TW* w, const ExecContext& ctx);

}  // namespace ccq::igemm_detail
