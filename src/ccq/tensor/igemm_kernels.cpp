// Vectorized igemm microkernels (vec16, vec-packed).
//
// Both kernels compute C = A·Bᵀ over dot-layout panels: every operand
// row is depth-contiguous and zero-padded to a lane-multiple stride, so
// the inner loops are pure widening multiply-accumulate with no scalar
// tail.  The weight side arrives pre-packed (IgemmPanel, igemm_pack);
// the activation side is repacked here per call into Workspace-leased
// int16 / uint8 scratch (a transpose for kWX, a narrowing copy for kXW,
// a patch gather straight from the input images for a conv op) —
// O(k·n) packing against O(m·k·n) math, and allocation-free warm.
//
// Exactness (what makes every lane sum provably overflow-free):
//   * vec16 — pmaddwd-shaped int16×int16→int32 pairs.  Each int32 lane
//     accumulates at most ⌈k/2⌉ pair sums of magnitude <= 2·|w|·|x|, so
//     |lane| <= k·max|w|·max|x|, which the int32-accumulator choice
//     (igemm_fits_int32) already bounds by INT32_MAX.
//   * vec-packed — maddubs-shaped uint8×int8→int16 pairs, then widened
//     by pmaddwd against ones.  Eligibility requires
//     2·max|w|·x_bound <= 32767, so the saturating int16 intermediate
//     never saturates; the int32 lane bound is the same subset argument.
// Padding zeros contribute zero products.  Integer adds are associative,
// so lane order / horizontal reduction order cannot change the bits.
//
// This translation unit is compiled with elevated optimisation (see
// src/CMakeLists.txt) so vec16's portable fallback loop vectorizes; on
// x86 the SSE2 / SSSE3 / AVX2 intrinsic paths are selected by feature
// test macros at compile time.  vec-packed has no portable loop: it is
// built only with SSSE3 or AVX2 (CCQ_IGEMM_PACKED_SIMD).
#include "ccq/tensor/igemm_detail.hpp"

#include <algorithm>
#include <cstdint>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif
#if defined(__SSSE3__)
#include <tmmintrin.h>
#endif
#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace ccq::igemm_detail {

namespace {

// ---- horizontal sums --------------------------------------------------------

#if defined(__SSE2__)
inline std::int32_t hsum_epi32(__m128i v) {
  v = _mm_add_epi32(v, _mm_shuffle_epi32(v, _MM_SHUFFLE(1, 0, 3, 2)));
  v = _mm_add_epi32(v, _mm_shuffle_epi32(v, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(v);
}
#endif

#if defined(__AVX2__)
inline std::int32_t hsum_epi32(__m256i v) {
  return hsum_epi32(_mm_add_epi32(_mm256_castsi256_si128(v),
                                  _mm256_extracti128_si256(v, 1)));
}
#endif

// ---- vec16 dot products (int16 × int16 → int32) -----------------------------
// dot4 amortises the shared-row loads over four opposing rows — the
// register tiling that turns the dot kernel from load-bound to MAC-bound.

#if defined(__AVX2__)

inline void dot4(const std::int16_t* a, const std::int16_t* b0,
                 const std::int16_t* b1, const std::int16_t* b2,
                 const std::int16_t* b3, std::size_t kp,
                 std::int32_t out[4]) {
  __m256i acc0 = _mm256_setzero_si256(), acc1 = _mm256_setzero_si256();
  __m256i acc2 = _mm256_setzero_si256(), acc3 = _mm256_setzero_si256();
  for (std::size_t p = 0; p < kp; p += 16) {
    const __m256i av =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + p));
    acc0 = _mm256_add_epi32(
        acc0, _mm256_madd_epi16(
                  av, _mm256_loadu_si256(
                          reinterpret_cast<const __m256i*>(b0 + p))));
    acc1 = _mm256_add_epi32(
        acc1, _mm256_madd_epi16(
                  av, _mm256_loadu_si256(
                          reinterpret_cast<const __m256i*>(b1 + p))));
    acc2 = _mm256_add_epi32(
        acc2, _mm256_madd_epi16(
                  av, _mm256_loadu_si256(
                          reinterpret_cast<const __m256i*>(b2 + p))));
    acc3 = _mm256_add_epi32(
        acc3, _mm256_madd_epi16(
                  av, _mm256_loadu_si256(
                          reinterpret_cast<const __m256i*>(b3 + p))));
  }
  out[0] = hsum_epi32(acc0);
  out[1] = hsum_epi32(acc1);
  out[2] = hsum_epi32(acc2);
  out[3] = hsum_epi32(acc3);
}

inline std::int32_t dot1(const std::int16_t* a, const std::int16_t* b,
                         std::size_t kp) {
  __m256i acc = _mm256_setzero_si256();
  for (std::size_t p = 0; p < kp; p += 16) {
    acc = _mm256_add_epi32(
        acc, _mm256_madd_epi16(
                 _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + p)),
                 _mm256_loadu_si256(
                     reinterpret_cast<const __m256i*>(b + p))));
  }
  return hsum_epi32(acc);
}

#elif defined(__SSE2__)

inline void dot4(const std::int16_t* a, const std::int16_t* b0,
                 const std::int16_t* b1, const std::int16_t* b2,
                 const std::int16_t* b3, std::size_t kp,
                 std::int32_t out[4]) {
  __m128i acc0 = _mm_setzero_si128(), acc1 = _mm_setzero_si128();
  __m128i acc2 = _mm_setzero_si128(), acc3 = _mm_setzero_si128();
  for (std::size_t p = 0; p < kp; p += 8) {
    const __m128i av =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + p));
    acc0 = _mm_add_epi32(
        acc0, _mm_madd_epi16(av, _mm_loadu_si128(
                                     reinterpret_cast<const __m128i*>(b0 + p))));
    acc1 = _mm_add_epi32(
        acc1, _mm_madd_epi16(av, _mm_loadu_si128(
                                     reinterpret_cast<const __m128i*>(b1 + p))));
    acc2 = _mm_add_epi32(
        acc2, _mm_madd_epi16(av, _mm_loadu_si128(
                                     reinterpret_cast<const __m128i*>(b2 + p))));
    acc3 = _mm_add_epi32(
        acc3, _mm_madd_epi16(av, _mm_loadu_si128(
                                     reinterpret_cast<const __m128i*>(b3 + p))));
  }
  out[0] = hsum_epi32(acc0);
  out[1] = hsum_epi32(acc1);
  out[2] = hsum_epi32(acc2);
  out[3] = hsum_epi32(acc3);
}

inline std::int32_t dot1(const std::int16_t* a, const std::int16_t* b,
                         std::size_t kp) {
  __m128i acc = _mm_setzero_si128();
  for (std::size_t p = 0; p < kp; p += 8) {
    acc = _mm_add_epi32(
        acc, _mm_madd_epi16(
                 _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + p)),
                 _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + p))));
  }
  return hsum_epi32(acc);
}

#else  // portable widening-MAC loops; this TU's -O3 lets them vectorize

inline void dot4(const std::int16_t* a, const std::int16_t* b0,
                 const std::int16_t* b1, const std::int16_t* b2,
                 const std::int16_t* b3, std::size_t kp,
                 std::int32_t out[4]) {
  std::int32_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  for (std::size_t p = 0; p < kp; ++p) {
    const std::int32_t av = a[p];
    s0 += av * b0[p];
    s1 += av * b1[p];
    s2 += av * b2[p];
    s3 += av * b3[p];
  }
  out[0] = s0;
  out[1] = s1;
  out[2] = s2;
  out[3] = s3;
}

inline std::int32_t dot1(const std::int16_t* a, const std::int16_t* b,
                         std::size_t kp) {
  std::int32_t s = 0;
  for (std::size_t p = 0; p < kp; ++p) s += std::int32_t{a[p]} * b[p];
  return s;
}

#endif

// ---- vec-packed dot products (uint8 × int8 → int32) -------------------------
// Overloads on operand types: kWX iterates weight rows against four
// activation rows (i8 shared, u8 tiled); kXW the reverse.  maddubs takes
// (unsigned, signed) in that order, so each overload routes its vectors
// accordingly.  SIMD only: without SSSE3 there is no 8-bit loop and
// vec-packed is never eligible (igemm_kernel_eligible).

#if defined(__AVX2__)

inline __m256i madd_u8s8(__m256i xv, __m256i wv, __m256i ones) {
  return _mm256_madd_epi16(_mm256_maddubs_epi16(xv, wv), ones);
}

inline void dot4(const std::int8_t* w, const std::uint8_t* x0,
                 const std::uint8_t* x1, const std::uint8_t* x2,
                 const std::uint8_t* x3, std::size_t kp, std::int32_t out[4]) {
  const __m256i ones = _mm256_set1_epi16(1);
  __m256i acc0 = _mm256_setzero_si256(), acc1 = _mm256_setzero_si256();
  __m256i acc2 = _mm256_setzero_si256(), acc3 = _mm256_setzero_si256();
  for (std::size_t p = 0; p < kp; p += 32) {
    const __m256i wv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + p));
    acc0 = _mm256_add_epi32(
        acc0, madd_u8s8(_mm256_loadu_si256(
                            reinterpret_cast<const __m256i*>(x0 + p)),
                        wv, ones));
    acc1 = _mm256_add_epi32(
        acc1, madd_u8s8(_mm256_loadu_si256(
                            reinterpret_cast<const __m256i*>(x1 + p)),
                        wv, ones));
    acc2 = _mm256_add_epi32(
        acc2, madd_u8s8(_mm256_loadu_si256(
                            reinterpret_cast<const __m256i*>(x2 + p)),
                        wv, ones));
    acc3 = _mm256_add_epi32(
        acc3, madd_u8s8(_mm256_loadu_si256(
                            reinterpret_cast<const __m256i*>(x3 + p)),
                        wv, ones));
  }
  out[0] = hsum_epi32(acc0);
  out[1] = hsum_epi32(acc1);
  out[2] = hsum_epi32(acc2);
  out[3] = hsum_epi32(acc3);
}

inline void dot4(const std::uint8_t* x, const std::int8_t* w0,
                 const std::int8_t* w1, const std::int8_t* w2,
                 const std::int8_t* w3, std::size_t kp, std::int32_t out[4]) {
  const __m256i ones = _mm256_set1_epi16(1);
  __m256i acc0 = _mm256_setzero_si256(), acc1 = _mm256_setzero_si256();
  __m256i acc2 = _mm256_setzero_si256(), acc3 = _mm256_setzero_si256();
  for (std::size_t p = 0; p < kp; p += 32) {
    const __m256i xv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + p));
    acc0 = _mm256_add_epi32(
        acc0, madd_u8s8(xv,
                        _mm256_loadu_si256(
                            reinterpret_cast<const __m256i*>(w0 + p)),
                        ones));
    acc1 = _mm256_add_epi32(
        acc1, madd_u8s8(xv,
                        _mm256_loadu_si256(
                            reinterpret_cast<const __m256i*>(w1 + p)),
                        ones));
    acc2 = _mm256_add_epi32(
        acc2, madd_u8s8(xv,
                        _mm256_loadu_si256(
                            reinterpret_cast<const __m256i*>(w2 + p)),
                        ones));
    acc3 = _mm256_add_epi32(
        acc3, madd_u8s8(xv,
                        _mm256_loadu_si256(
                            reinterpret_cast<const __m256i*>(w3 + p)),
                        ones));
  }
  out[0] = hsum_epi32(acc0);
  out[1] = hsum_epi32(acc1);
  out[2] = hsum_epi32(acc2);
  out[3] = hsum_epi32(acc3);
}

inline std::int32_t dot1(const std::int8_t* w, const std::uint8_t* x,
                         std::size_t kp) {
  const __m256i ones = _mm256_set1_epi16(1);
  __m256i acc = _mm256_setzero_si256();
  for (std::size_t p = 0; p < kp; p += 32) {
    acc = _mm256_add_epi32(
        acc,
        madd_u8s8(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + p)),
                  _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + p)),
                  ones));
  }
  return hsum_epi32(acc);
}

inline std::int32_t dot1(const std::uint8_t* x, const std::int8_t* w,
                         std::size_t kp) {
  return dot1(w, x, kp);
}

#elif defined(__SSSE3__)

inline __m128i madd_u8s8(__m128i xv, __m128i wv, __m128i ones) {
  return _mm_madd_epi16(_mm_maddubs_epi16(xv, wv), ones);
}

inline void dot4(const std::int8_t* w, const std::uint8_t* x0,
                 const std::uint8_t* x1, const std::uint8_t* x2,
                 const std::uint8_t* x3, std::size_t kp, std::int32_t out[4]) {
  const __m128i ones = _mm_set1_epi16(1);
  __m128i acc0 = _mm_setzero_si128(), acc1 = _mm_setzero_si128();
  __m128i acc2 = _mm_setzero_si128(), acc3 = _mm_setzero_si128();
  for (std::size_t p = 0; p < kp; p += 16) {
    const __m128i wv =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(w + p));
    acc0 = _mm_add_epi32(
        acc0, madd_u8s8(_mm_loadu_si128(
                            reinterpret_cast<const __m128i*>(x0 + p)),
                        wv, ones));
    acc1 = _mm_add_epi32(
        acc1, madd_u8s8(_mm_loadu_si128(
                            reinterpret_cast<const __m128i*>(x1 + p)),
                        wv, ones));
    acc2 = _mm_add_epi32(
        acc2, madd_u8s8(_mm_loadu_si128(
                            reinterpret_cast<const __m128i*>(x2 + p)),
                        wv, ones));
    acc3 = _mm_add_epi32(
        acc3, madd_u8s8(_mm_loadu_si128(
                            reinterpret_cast<const __m128i*>(x3 + p)),
                        wv, ones));
  }
  out[0] = hsum_epi32(acc0);
  out[1] = hsum_epi32(acc1);
  out[2] = hsum_epi32(acc2);
  out[3] = hsum_epi32(acc3);
}

inline void dot4(const std::uint8_t* x, const std::int8_t* w0,
                 const std::int8_t* w1, const std::int8_t* w2,
                 const std::int8_t* w3, std::size_t kp, std::int32_t out[4]) {
  const __m128i ones = _mm_set1_epi16(1);
  __m128i acc0 = _mm_setzero_si128(), acc1 = _mm_setzero_si128();
  __m128i acc2 = _mm_setzero_si128(), acc3 = _mm_setzero_si128();
  for (std::size_t p = 0; p < kp; p += 16) {
    const __m128i xv =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(x + p));
    acc0 = _mm_add_epi32(
        acc0, madd_u8s8(xv,
                        _mm_loadu_si128(
                            reinterpret_cast<const __m128i*>(w0 + p)),
                        ones));
    acc1 = _mm_add_epi32(
        acc1, madd_u8s8(xv,
                        _mm_loadu_si128(
                            reinterpret_cast<const __m128i*>(w1 + p)),
                        ones));
    acc2 = _mm_add_epi32(
        acc2, madd_u8s8(xv,
                        _mm_loadu_si128(
                            reinterpret_cast<const __m128i*>(w2 + p)),
                        ones));
    acc3 = _mm_add_epi32(
        acc3, madd_u8s8(xv,
                        _mm_loadu_si128(
                            reinterpret_cast<const __m128i*>(w3 + p)),
                        ones));
  }
  out[0] = hsum_epi32(acc0);
  out[1] = hsum_epi32(acc1);
  out[2] = hsum_epi32(acc2);
  out[3] = hsum_epi32(acc3);
}

inline std::int32_t dot1(const std::int8_t* w, const std::uint8_t* x,
                         std::size_t kp) {
  const __m128i ones = _mm_set1_epi16(1);
  __m128i acc = _mm_setzero_si128();
  for (std::size_t p = 0; p < kp; p += 16) {
    acc = _mm_add_epi32(
        acc, madd_u8s8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(x + p)),
                       _mm_loadu_si128(reinterpret_cast<const __m128i*>(w + p)),
                       ones));
  }
  return hsum_epi32(acc);
}

inline std::int32_t dot1(const std::uint8_t* x, const std::int8_t* w,
                         std::size_t kp) {
  return dot1(w, x, kp);
}

#endif

// ---- shared driver ----------------------------------------------------------

/// Dot-layout GEMM driver: C[i,j] = epilogue(dot(a_row_i, b_row_j)),
/// both operand rows `kp` elements apart.  Parallel over output rows in
/// `grain` chunks; 4-wide register tiling over j with a dot1 tail.  The
/// epilogue channel index is the row for kPerRow (kWX) and the column
/// otherwise (kXW) — the only asymmetry between the two forms once both
/// operands are in dot layout.  `Epi` is one of the igemm_detail
/// epilogue policies (float affine or fixed-point requant).
template <bool kPerRow, typename TA, typename TB, typename Epi>
void dot_driver(std::size_t m, std::size_t n, std::size_t kp, const TA* a,
                const TB* b, const Epi& epi, std::size_t grain,
                const ExecContext& ctx) {
  parallel_for(ctx, m, grain, [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) {
      const TA* arow = a + i * kp;
      std::size_t j = 0;
      for (; j + 4 <= n; j += 4) {
        std::int32_t out[4];
        dot4(arow, b + j * kp, b + (j + 1) * kp, b + (j + 2) * kp,
             b + (j + 3) * kp, kp, out);
        for (std::size_t t = 0; t < 4; ++t) {
          epi.store(i * n + j + t, kPerRow ? i : j + t, out[t]);
        }
      }
      for (; j < n; ++j) {
        const std::int32_t d = dot1(arow, b + j * kp, kp);
        epi.store(i * n + j, kPerRow ? i : j, d);
      }
    }
  });
}

/// Repack the activation codes into a dot-layout panel of `Dst` lanes:
/// kWX transposes the k×n matrix to n rows of k codes; kXW narrows (or,
/// when the fused datapath already delivers `Dst`-typed codes, copies)
/// the m×k rows in place.  Rows are zero-padded to `kp`.  Eligibility
/// (igemm_run) guarantees every code fits `Dst`.
template <typename Dst, typename Src>
void pack_x(const Src* x, const IgemmOp& op, std::size_t kp, Dst* xp,
            const ExecContext& ctx) {
  const std::size_t xrows = op.form == IgemmForm::kWX ? op.n : op.m;
  parallel_for(ctx, xrows, 64, [&](std::size_t r0, std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r) {
      Dst* row = xp + r * kp;
      if (op.form == IgemmForm::kWX) {
        for (std::size_t p = 0; p < op.k; ++p) {
          row[p] = static_cast<Dst>(x[p * op.n + r]);
        }
      } else {
        const Src* xrow = x + r * op.k;
        for (std::size_t p = 0; p < op.k; ++p) {
          row[p] = static_cast<Dst>(xrow[p]);
        }
      }
      for (std::size_t p = op.k; p < kp; ++p) row[p] = Dst{0};
    }
  });
}

// ---- convolution ops ---------------------------------------------------------
// A conv op (IgemmOp::conv) skips the k×n column matrix: input planes are
// copied once into a zero-padded, lane-typed buffer, then tiles of output
// positions are gathered straight into dot-layout rows and every weight
// row runs against each tile while it is cache-hot.

/// Bytes of gathered patch rows per position tile: the tile is swept
/// once per weight row, so it is sized to stay L1-resident.
inline constexpr std::size_t kConvTileBytes = 32 * 1024;

/// Copy `planes` H×W code planes into (H+2·pad)×(W+2·pad) planes with a
/// zero frame, narrowing to the lane type `Dst` (eligibility guarantees
/// every code fits).  Afterwards every patch row of every output
/// position is `kernel` consecutive in-bounds elements.
template <typename Dst, typename Src>
void pad_planes(const Src* x, const ConvGeometry& g, std::size_t planes,
                Dst* xp, const ExecContext& ctx) {
  const std::size_t wp = g.in_w + 2 * g.pad;
  const std::size_t plane = (g.in_h + 2 * g.pad) * wp;
  parallel_for(ctx, planes, 8, [&](std::size_t p0, std::size_t p1) {
    for (std::size_t p = p0; p < p1; ++p) {
      const Src* src = x + p * g.in_h * g.in_w;
      Dst* dst = xp + p * plane;
      std::fill(dst, dst + g.pad * wp, Dst{0});
      for (std::size_t y = 0; y < g.in_h; ++y) {
        Dst* row = dst + (g.pad + y) * wp;
        std::fill(row, row + g.pad, Dst{0});
        for (std::size_t i = 0; i < g.in_w; ++i) {
          row[g.pad + i] = static_cast<Dst>(src[y * g.in_w + i]);
        }
        std::fill(row + g.pad + g.in_w, row + wp, Dst{0});
      }
      std::fill(dst + (g.pad + g.in_h) * wp, dst + plane, Dst{0});
    }
  });
}

/// Gather output positions [q0, q1) — flat over images × out_h × out_w —
/// from the padded planes into `tile`, one `kp`-lane dot-layout row each
/// in the weight panel's depth order (c, ky, kx), zero past k.
/// `obase[t]` receives position t's output offset img·m·n + pos; adding
/// row·n gives the NCHW output index.
template <typename T>
void gather_tile(const T* xp, const ConvGeometry& g, std::size_t oh,
                 std::size_t ow, std::size_t m, std::size_t q0,
                 std::size_t q1, std::size_t kp, T* tile,
                 std::size_t* obase) {
  const std::size_t n = oh * ow;
  const std::size_t wp = g.in_w + 2 * g.pad;
  const std::size_t plane = (g.in_h + 2 * g.pad) * wp;
  const std::size_t kk = g.kernel;
  const std::size_t k = g.patch_size();
  std::size_t img = q0 / n;
  std::size_t oy = q0 % n / ow;
  std::size_t ox = q0 % ow;
  for (std::size_t q = q0; q < q1; ++q) {
    T* const row = tile + (q - q0) * kp;
    obase[q - q0] = img * m * n + oy * ow + ox;
    const T* src = xp + img * g.in_channels * plane +
                   oy * g.stride * wp + ox * g.stride;
    T* dst = row;
    if (kk == 3) {
      for (std::size_t c = 0; c < g.in_channels; ++c, src += plane) {
        dst[0] = src[0];
        dst[1] = src[1];
        dst[2] = src[2];
        dst[3] = src[wp];
        dst[4] = src[wp + 1];
        dst[5] = src[wp + 2];
        dst[6] = src[2 * wp];
        dst[7] = src[2 * wp + 1];
        dst[8] = src[2 * wp + 2];
        dst += 9;
      }
    } else {
      for (std::size_t c = 0; c < g.in_channels; ++c, src += plane) {
        for (std::size_t ky = 0; ky < kk; ++ky) {
          for (std::size_t kx = 0; kx < kk; ++kx) *dst++ = src[ky * wp + kx];
        }
      }
    }
    std::fill(row + k, row + kp, T{0});
    if (++ox == ow) {
      ox = 0;
      if (++oy == oh) {
        oy = 0;
        ++img;
      }
    }
  }
}

/// Execute a validated conv op over dot-layout weight rows `w` (lane type
/// TW) with activations in lane type `Dst`.  Work items are position
/// tiles × weight-row blocks; rows are split only when there are fewer
/// tiles than threads (a small batch), each block re-gathering its tile.
/// Every output element is one exact dot, so the partition cannot change
/// the bits.
template <typename Dst, typename TW>
void run_conv(const IgemmOp& op, const TW* w, std::size_t kp,
              const ExecContext& ctx) {
  const ConvGeometry& g = op.conv->geometry;
  const std::size_t oh = g.out_h(), ow = g.out_w();
  const std::size_t planes = op.conv->images * g.in_channels;
  const std::size_t plane = (g.in_h + 2 * g.pad) * (g.in_w + 2 * g.pad);
  Workspace& ws = op.ws != nullptr ? *op.ws : Workspace::scratch();
  Workspace::Lease<Dst> padded = ws.lease<Dst>(planes * plane);
  with_x(op, [&](const auto* x) {
    pad_planes<Dst>(x, g, planes, padded.data(), ctx);
  });
  const Dst* xp = padded.data();

  const std::size_t total = op.conv->images * op.n;
  const std::size_t nc =
      std::min(std::max<std::size_t>(op.blocking.nc, 1), kIgemmMaxNc);
  const std::size_t row_bytes = std::max<std::size_t>(kp, 1) * sizeof(Dst);
  const std::size_t tile_w =
      std::min(nc, std::max<std::size_t>(kConvTileBytes / row_bytes, 4));
  const std::size_t tiles = (total + tile_w - 1) / tile_w;
  const std::size_t threads = ctx.threads();
  const std::size_t row_blocks =
      tiles >= threads ? 1
                       : std::min((op.m + 3) / 4, (threads + tiles - 1) / tiles);
  const std::size_t rows_per = (op.m + row_blocks - 1) / row_blocks;
  const std::size_t items = tiles * row_blocks;
  dispatch_epilogue(op, [&](const auto& epi) {
    parallel_for(ctx, items, (items + threads - 1) / threads,
                 [&](std::size_t i0, std::size_t i1) {
      Workspace::Lease<Dst> scratch = ws.lease<Dst>(tile_w * kp);
      Dst* tile = scratch.data();
      std::size_t obase[kIgemmMaxNc];
      std::size_t gathered = tiles;  // index of the tile in `scratch`
      for (std::size_t item = i0; item < i1; ++item) {
        const std::size_t t = item / row_blocks;
        const std::size_t q0 = t * tile_w;
        const std::size_t cnt = std::min(total, q0 + tile_w) - q0;
        if (t != gathered) {
          gather_tile(xp, g, oh, ow, op.m, q0, q0 + cnt, kp, tile, obase);
          gathered = t;
        }
        const std::size_t r0 = item % row_blocks * rows_per;
        const std::size_t r1 = std::min(op.m, r0 + rows_per);
        for (std::size_t i = r0; i < r1; ++i) {
          const TW* wrow = w + i * kp;
          const std::size_t rofs = i * op.n;
          std::size_t j = 0;
          for (; j + 4 <= cnt; j += 4) {
            std::int32_t out[4];
            dot4(wrow, tile + j * kp, tile + (j + 1) * kp,
                 tile + (j + 2) * kp, tile + (j + 3) * kp, kp, out);
            for (std::size_t u = 0; u < 4; ++u) {
              epi.store(obase[j + u] + rofs, i, out[u]);
            }
          }
          for (; j < cnt; ++j) {
            epi.store(obase[j] + rofs, i, dot1(wrow, tile + j * kp, kp));
          }
        }
      }
    });
  });
}

}  // namespace

template <typename TX, typename TW>
void run_vec(const IgemmOp& op, const TW* w, const ExecContext& ctx) {
  const std::size_t kp = op.panel->stride;
  if (op.conv) {
    run_conv<TX>(op, w, kp, ctx);
    return;
  }
  const std::size_t xrows = op.form == IgemmForm::kWX ? op.n : op.m;
  Workspace& ws = op.ws != nullptr ? *op.ws : Workspace::scratch();
  Workspace::Lease<TX> xp = ws.lease<TX>(xrows * kp);
  with_x(op, [&](const auto* x) { pack_x<TX>(x, op, kp, xp.data(), ctx); });
  const std::size_t grain = std::max<std::size_t>(op.blocking.row_grain, 1);
  dispatch_epilogue(op, [&](const auto& epi) {
    if (op.form == IgemmForm::kWX) {
      dot_driver<true>(op.m, op.n, kp, w, xp.data(), epi, grain, ctx);
    } else {
      dot_driver<false>(op.m, op.n, kp, xp.data(), w, epi, grain, ctx);
    }
  });
}

template void run_vec<std::int16_t>(const IgemmOp&, const std::int16_t*,
                                    const ExecContext&);
#if CCQ_IGEMM_PACKED_SIMD
template void run_vec<std::uint8_t>(const IgemmOp&, const std::int8_t*,
                                    const ExecContext&);
#endif

}  // namespace ccq::igemm_detail
