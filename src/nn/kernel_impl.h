#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "nn/kernel_backend.h"  // kQuantTile / quant_packed_index layout

/// Internal declarations of the per-backend kernel implementations. Each
/// backend lives in its own translation unit (nn/kernel_<backend>.cpp)
/// compiled with exactly the ISA flags it needs plus -ffp-contract=off, so
/// no mul+add can fuse into FMA and change rounding. Only the registry
/// (nn/kernel_backend.cpp) and the dispatchers (nn/matrix.cpp) include this
/// header; everything else goes through kernel_backend.h.
namespace imap::nn::kernel::detail {

// --- shared elementwise serving math ---------------------------------------
// Inlined into every backend's quant_act (vector bodies replicate the exact
// op DAG with intrinsics; scalar tails call these directly). Each operation
// is a single IEEE rounding, so any evaluation — scalar, SSE epilogue, AVX
// lane — of the same input is bitwise identical.

/// Branchless rational tanh for the int8 serving path: the Padé(7,6)
/// approximant x·(135135 + 17325x² + 378x⁴ + x⁶) / (135135 + 62370x² +
/// 3150x⁴ + 28x⁶) with the input clamped to [-5, 5]. Max absolute error
/// ≈ 1.1e-4 over the real line — two orders of magnitude inside
/// kQuantActionTolerance and on par with the int8 quantization noise, at a
/// tenth of the libm cost.
inline float quant_fast_tanh(float x) {
  x = x < -5.0f ? -5.0f : x;
  x = x > 5.0f ? 5.0f : x;
  const float x2 = x * x;
  const float p = x * (135135.0f + x2 * (17325.0f + x2 * (378.0f + x2)));
  const float q = 135135.0f + x2 * (62370.0f + x2 * (3150.0f + 28.0f * x2));
  return p / q;
}

/// Round-to-nearest-even int8 code of `v` (already scaled into ±127 plus
/// rounding slack), clamped. Matches _mm*_cvtps_epi32 under the default
/// MXCSR/FPCR rounding mode.
inline std::int16_t quant_code(float v) {
  long code = std::lrintf(v);
  code = code < -127 ? -127 : code;
  code = code > 127 ? 127 : code;
  return static_cast<std::int16_t>(code);
}

// --- shared KNN scan --------------------------------------------------------
// Every backend TU is compiled with different ISA flags, so the helpers below
// have internal linkage (static functions; templates instantiated only with
// TU-local lane types): the linker can never hand one backend's machine code
// to another.

/// Fold the squared distance `sq` into the ascending top-k list `best`
/// (size k). Strict `<` against the current k-th best: an equal value
/// leaves the list unchanged, so the sorted list is the k smallest values
/// seen whatever order they arrive in (NaN is never inserted).
static inline void knn_insert(double* best, std::size_t k, double sq) {
  if (!(sq < best[k - 1])) return;
  std::size_t pos = k - 1;
  while (pos > 0 && best[pos - 1] > sq) {
    best[pos] = best[pos - 1];
    --pos;
  }
  best[pos] = sq;
}

/// Q queries against R consecutive row blocks starting at `blk` (`left`
/// rows remain from there; more than (R−1)·kKnnLanes). `V` is a backend's
/// lane type: V::Vec holds one block column (kKnnLanes rows), and
///   V::zero(), V::load(p), V::acc_sq(acc, x, q) = acc + (x − q)·(x − q)
///   (separate sub, mul, add), V::lt_mask(acc, t) (bit l set when lane l
///   < t, false for NaN), V::store(p, acc).
/// Each loaded column feeds Q·R independent accumulator chains; a query's
/// top-k is touched only for lanes that beat its current k-th best, and
/// lanes past the last row are masked off. Forced inline: as an outlined
/// call per row block (with its vzeroupper) it cost more than the block.
template <class V, std::size_t Q, std::size_t R>
[[gnu::always_inline]] inline void knn_step(const double* blk,
                                            std::size_t left, std::size_t dim,
                                            std::size_t k, const double* q,
                                            std::size_t stride,
                                            double (*best)[kKnnMaxK]) {
  typename V::Vec acc[Q][R];
  for (auto& row : acc)
    for (auto& a : row) a = V::zero();
  for (std::size_t c = 0; c < dim; ++c) {
    typename V::Vec x[R];
    for (std::size_t h = 0; h < R; ++h)
      x[h] = V::load(blk + (h * dim + c) * kKnnLanes);
    for (std::size_t j = 0; j < Q; ++j) {
      const double qc = q[j * stride + c];
      for (std::size_t h = 0; h < R; ++h)
        acc[j][h] = V::acc_sq(acc[j][h], x[h], qc);
    }
  }
  for (std::size_t h = 0; h < R; ++h) {
    const std::size_t rem = left - h * kKnnLanes;
    const unsigned live = rem >= kKnnLanes ? 0xffu : (1u << rem) - 1u;
    for (std::size_t j = 0; j < Q; ++j) {
      unsigned m = V::lt_mask(acc[j][h], best[j][k - 1]) & live;
      if (m == 0) continue;
      alignas(64) double sq[kKnnLanes] = {};
      V::store(sq, acc[j][h]);
      for (; m != 0; m &= m - 1)
        knn_insert(best[j], k, sq[std::countr_zero(m)]);
    }
  }
}

/// Q queries against every row: R row blocks per step while they last,
/// then one block at a time.
template <class V, std::size_t Q, std::size_t R>
void knn_tile(const double* blocks, std::size_t rows, std::size_t dim,
              std::size_t k, const double* q, std::size_t stride,
              double* kth) {
  double best[Q][kKnnMaxK];
  for (auto& b : best)
    std::fill(b, b + k, std::numeric_limits<double>::infinity());
  std::size_t r0 = 0;
  for (; r0 + R * kKnnLanes <= rows; r0 += R * kKnnLanes)
    knn_step<V, Q, R>(blocks + r0 * dim, rows - r0, dim, k, q, stride, best);
  for (; r0 < rows; r0 += kKnnLanes)
    knn_step<V, Q, 1>(blocks + r0 * dim, rows - r0, dim, k, q, stride, best);
  for (std::size_t j = 0; j < Q; ++j) kth[j] = best[j][k - 1];
}

/// The knn_scan entry of a SIMD backend: query tiles of kKnnQueryTile
/// sharing each row-block load (kTileRows blocks per step), then leftover
/// queries one at a time over kSingleRows blocks per step — enough
/// independent add chains to hide the add latency either way.
template <class V, std::size_t kTileRows, std::size_t kSingleRows>
void knn_scan_tiled(const double* blocks, std::size_t rows, std::size_t dim,
                    std::size_t k, const double* queries, std::size_t nq,
                    std::size_t stride, double* kth) {
  constexpr std::size_t kKnnQueryTile = 4;
  std::size_t i = 0;
  for (; i + kKnnQueryTile <= nq; i += kKnnQueryTile)
    knn_tile<V, kKnnQueryTile, kTileRows>(blocks, rows, dim, k,
                                          queries + i * stride, stride,
                                          kth + i);
  for (; i < nq; ++i)
    knn_tile<V, 1, kSingleRows>(blocks, rows, dim, k, queries + i * stride,
                                stride, kth + i);
}

// --- scalar reference (always compiled) ------------------------------------
void scalar_batch_affine(const double* w, const double* wt, const double* b,
                         std::size_t out, std::size_t in, const double* x,
                         std::size_t batch, double* y);
void scalar_batch_matvec_t(const double* w, std::size_t out, std::size_t in,
                           const double* g, std::size_t batch, double* gin);
void scalar_batch_outer_acc(const double* g, const double* x,
                            std::size_t batch, std::size_t out, std::size_t in,
                            double* dw, double* db);
void scalar_quant_affine(const std::int16_t* wq_packed, const float* row_scale,
                         const float* bias, std::size_t out,
                         std::size_t in_pairs, const std::int16_t* xq,
                         const float* xscale, std::size_t batch, float* y);
void scalar_quant_act(float* h, std::size_t batch, std::size_t width,
                      std::size_t out_pairs, std::int16_t* qx, float* qscale);
void scalar_knn_scan(const double* blocks, std::size_t rows, std::size_t dim,
                     std::size_t k, const double* queries, std::size_t nq,
                     std::size_t stride, double* kth);

// --- avx2 (x86-64; TU compiled with -mavx2 -mno-fma) -----------------------
#ifdef IMAP_KERNEL_AVX2
void avx2_batch_affine(const double* w, const double* wt, const double* b,
                       std::size_t out, std::size_t in, const double* x,
                       std::size_t batch, double* y);
void avx2_batch_matvec_t(const double* w, std::size_t out, std::size_t in,
                         const double* g, std::size_t batch, double* gin);
void avx2_batch_outer_acc(const double* g, const double* x, std::size_t batch,
                          std::size_t out, std::size_t in, double* dw,
                          double* db);
void avx2_quant_affine(const std::int16_t* wq_packed, const float* row_scale,
                       const float* bias, std::size_t out,
                       std::size_t in_pairs, const std::int16_t* xq,
                       const float* xscale, std::size_t batch, float* y);
void avx2_quant_act(float* h, std::size_t batch, std::size_t width,
                    std::size_t out_pairs, std::int16_t* qx, float* qscale);
void avx2_knn_scan(const double* blocks, std::size_t rows, std::size_t dim,
                   std::size_t k, const double* queries, std::size_t nq,
                   std::size_t stride, double* kth);
#endif

// --- avx512 (x86-64; TU compiled with -mavx512f -mavx512bw) ----------------
#ifdef IMAP_KERNEL_AVX512
void avx512_batch_affine(const double* w, const double* wt, const double* b,
                         std::size_t out, std::size_t in, const double* x,
                         std::size_t batch, double* y);
void avx512_batch_matvec_t(const double* w, std::size_t out, std::size_t in,
                           const double* g, std::size_t batch, double* gin);
void avx512_batch_outer_acc(const double* g, const double* x,
                            std::size_t batch, std::size_t out, std::size_t in,
                            double* dw, double* db);
void avx512_quant_affine(const std::int16_t* wq_packed, const float* row_scale,
                         const float* bias, std::size_t out,
                         std::size_t in_pairs, const std::int16_t* xq,
                         const float* xscale, std::size_t batch, float* y);
void avx512_quant_act(float* h, std::size_t batch, std::size_t width,
                      std::size_t out_pairs, std::int16_t* qx, float* qscale);
void avx512_knn_scan(const double* blocks, std::size_t rows, std::size_t dim,
                     std::size_t k, const double* queries, std::size_t nq,
                     std::size_t stride, double* kth);
#endif

// --- neon (aarch64; asimd is baseline, no extra ISA flags needed) ----------
#ifdef IMAP_KERNEL_NEON
void neon_batch_affine(const double* w, const double* wt, const double* b,
                       std::size_t out, std::size_t in, const double* x,
                       std::size_t batch, double* y);
void neon_batch_matvec_t(const double* w, std::size_t out, std::size_t in,
                         const double* g, std::size_t batch, double* gin);
void neon_batch_outer_acc(const double* g, const double* x, std::size_t batch,
                          std::size_t out, std::size_t in, double* dw,
                          double* db);
void neon_knn_scan(const double* blocks, std::size_t rows, std::size_t dim,
                   std::size_t k, const double* queries, std::size_t nq,
                   std::size_t stride, double* kth);
#endif

}  // namespace imap::nn::kernel::detail
