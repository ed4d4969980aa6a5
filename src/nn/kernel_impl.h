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

// --- shared fp64 tanh -------------------------------------------------------
// The training activation (Mlp::forward_batch). One op DAG, evaluated by the
// scalar body below and replayed op for op by the avx2/avx512 tanh_rows
// bodies (separate mul/add/div, no FMA, the same constants), so every
// backend returns the same bits. Both branches are computed and one is
// picked without a branch; ≤ 2 ulp from std::tanh (tests/test_kernel_matrix).

/// Below this |x| the odd rational is used, at or above it the exp form.
inline constexpr double kTanhSmall = 0.625;
/// |x| clamp: tanh(20) already rounds to 1, and 2·20/ln2 keeps 2ⁿ finite.
inline constexpr double kTanhClamp = 20.0;
inline constexpr double kTanhLog2e = 1.4426950408889634073599;
/// ln 2 split so that n·kTanhLn2Hi is exact for every n the clamp allows.
inline constexpr double kTanhLn2Hi = 6.93145751953125e-1;
inline constexpr double kTanhLn2Lo = 1.42860682030941723212e-6;
/// 1.5·2⁵²: adding it rounds to an integer held in the low mantissa bits.
inline constexpr double kTanhRound = 6755399441055744.0;
/// exp(r) = 1 + 2·r·P(r²) / (Q(r²) − r·P(r²)) for |r| ≤ ln2/2.
inline constexpr double kTanhP0 = 1.26177193074810590878e-4;
inline constexpr double kTanhP1 = 3.02994407707441961300e-2;
inline constexpr double kTanhP2 = 9.99999999999999999910e-1;
inline constexpr double kTanhQ0 = 3.00198505138664455042e-6;
inline constexpr double kTanhQ1 = 2.52448340349684104192e-3;
inline constexpr double kTanhQ2 = 2.27265548208155028766e-1;
inline constexpr double kTanhQ3 = 2.00000000000000000009e0;
/// tanh(x) = x + x·z·S(z) / T(z), z = x², T monic, for |x| < kTanhSmall.
inline constexpr double kTanhS0 = -9.64399179425052238628e-1;
inline constexpr double kTanhS1 = -9.92877231001918586564e1;
inline constexpr double kTanhS2 = -1.61468768441708447952e3;
inline constexpr double kTanhT0 = 1.12811678491632931402e2;
inline constexpr double kTanhT1 = 2.23548839060100448583e3;
inline constexpr double kTanhT2 = 4.84406305325125486048e3;
inline constexpr std::uint64_t kTanhSignBit = 0x8000000000000000ULL;
inline constexpr std::uint64_t kTanhExpBias = 1023;

/// The scalar tanh body; internal linkage, so each backend TU keeps its own
/// copy compiled with its own flags. With a = min(|x|, 20) (NaN stays NaN,
/// so NaN in gives NaN out), 2a = n·ln2 + r and p = r·P(r²), q = Q(r²):
///   e = exp(2a) = (1 + 2·p/(q − p))·2ⁿ,  big = 1 − 2/(e + 1);
/// with z = x²: small = |x| + ((|x|·z)·S(z))/T(z). The result is
/// |x| < 0.625 ? small : big with the sign of x OR-ed back in. ±0 and
/// subnormals take the small branch and come back unchanged; ±inf clamp
/// to ±1.
static inline double tanh_fp64(double x) {
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
  const std::uint64_t sign = bits & kTanhSignBit;
  const double ax = std::bit_cast<double>(bits ^ sign);

  const double a = kTanhClamp < ax ? kTanhClamp : ax;
  const double t = a + a;
  const double kd = t * kTanhLog2e + kTanhRound;
  const double nd = kd - kTanhRound;
  const double r = (t - nd * kTanhLn2Hi) - nd * kTanhLn2Lo;
  const double rr = r * r;
  const double px = r * ((kTanhP0 * rr + kTanhP1) * rr + kTanhP2);
  const double qx = ((kTanhQ0 * rr + kTanhQ1) * rr + kTanhQ2) * rr + kTanhQ3;
  const double er = 1.0 + 2.0 * (px / (qx - px));
  const std::uint64_t n = std::bit_cast<std::uint64_t>(kd) -
                          std::bit_cast<std::uint64_t>(kTanhRound);
  const double e = er * std::bit_cast<double>((n + kTanhExpBias) << 52);
  const double big = 1.0 - 2.0 / (e + 1.0);

  const double z = ax * ax;
  const double s = (kTanhS0 * z + kTanhS1) * z + kTanhS2;
  const double q = ((z + kTanhT0) * z + kTanhT1) * z + kTanhT2;
  const double small = ax + ((ax * z) * s) / q;

  const double y = ax < kTanhSmall ? small : big;
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(y) | sign);
}

/// The SIMD tanh_rows body: tanh_fp64's op DAG on V::kWidth lanes at a
/// time, the n % kWidth tail through tanh_fp64 itself. Each lane needs the
/// quotient of one branch only, so both branches' first quotient is one
/// division whose numerator and denominator are picked by the |x| < 0.625
/// mask — ((|x|·z)·S(z)) / T(z) in small lanes, p / (q − p) in exp lanes —
/// and every lane still sees its own branch's exact operands. The exp
/// form's 2/(e + 1) is skipped when no lane takes it: two divisions per
/// vector, one in an all-small vector. `V` is a backend's TU-local lane type
/// providing load/store/set1, add/sub/mul/div, min(a, b) = a < b ? a : b
/// (so min(kTanhClamp, NaN) is NaN, as in the scalar clamp), lt(a, b) → a
/// lane mask (false for NaN), all(m) (every lane set), select(m, yes, no),
/// bitwise and_bits/or_bits/xor_bits, and pow2(kd) = the double with
/// exponent field bits(kd) − bits(kTanhRound) + kTanhExpBias, i.e. 2ⁿ.
template <class V>
void tanh_rows_vec(const double* x, std::size_t n, double* y) {
  using Vec = typename V::Vec;
  const auto c = [](double v) { return V::set1(v); };
  const Vec sign_bit = c(std::bit_cast<double>(kTanhSignBit));
  std::size_t i = 0;
  for (; i + V::kWidth <= n; i += V::kWidth) {
    const Vec xv = V::load(x + i);
    const Vec sign = V::and_bits(xv, sign_bit);
    const Vec ax = V::xor_bits(xv, sign);
    const auto small_lane = V::lt(ax, c(kTanhSmall));

    const Vec z = V::mul(ax, ax);
    const Vec s = V::add(
        V::mul(V::add(V::mul(c(kTanhS0), z), c(kTanhS1)), z), c(kTanhS2));
    const Vec q = V::add(
        V::mul(V::add(V::mul(V::add(z, c(kTanhT0)), z), c(kTanhT1)), z),
        c(kTanhT2));

    const Vec a = V::min(c(kTanhClamp), ax);
    const Vec t = V::add(a, a);
    const Vec kd = V::add(V::mul(t, c(kTanhLog2e)), c(kTanhRound));
    const Vec nd = V::sub(kd, c(kTanhRound));
    const Vec r = V::sub(V::sub(t, V::mul(nd, c(kTanhLn2Hi))),
                         V::mul(nd, c(kTanhLn2Lo)));
    const Vec rr = V::mul(r, r);
    const Vec px = V::mul(
        r, V::add(V::mul(V::add(V::mul(c(kTanhP0), rr), c(kTanhP1)), rr),
                  c(kTanhP2)));
    const Vec qx = V::add(
        V::mul(V::add(V::mul(V::add(V::mul(c(kTanhQ0), rr), c(kTanhQ1)), rr),
                      c(kTanhQ2)),
               rr),
        c(kTanhQ3));

    const Vec quo =
        V::div(V::select(small_lane, V::mul(V::mul(ax, z), s), px),
               V::select(small_lane, q, V::sub(qx, px)));
    Vec pick = V::add(ax, quo);
    if (!V::all(small_lane)) {
      const Vec er = V::add(c(1.0), V::mul(c(2.0), quo));
      const Vec e = V::mul(er, V::pow2(kd));
      const Vec big = V::sub(c(1.0), V::div(c(2.0), V::add(e, c(1.0))));
      pick = V::select(small_lane, pick, big);
    }
    V::store(y + i, V::or_bits(pick, sign));
  }
  for (; i < n; ++i) y[i] = tanh_fp64(x[i]);
}

// --- shared tanh derivative --------------------------------------------------
// The backward pass's g · (1 − y²) through a tanh layer: one op DAG (mul,
// sub, mul), each one IEEE rounding, in the scalar body and in the SIMD
// template that replays it.

/// One element of KernelBackend::tanh_grad; internal linkage, like
/// tanh_fp64.
static inline double tanh_grad_fp64(double y, double g) {
  return g * (1.0 - y * y);
}

/// The SIMD tanh_grad body: tanh_grad_fp64 on V::kWidth elements at a time
/// (V as for tanh_rows_vec), the n % kWidth tail through tanh_grad_fp64.
template <class V>
void tanh_grad_vec(const double* y, std::size_t n, double* g) {
  const typename V::Vec one = V::set1(1.0);
  std::size_t i = 0;
  for (; i + V::kWidth <= n; i += V::kWidth) {
    const typename V::Vec yv = V::load(y + i);
    V::store(g + i, V::mul(V::load(g + i), V::sub(one, V::mul(yv, yv))));
  }
  for (; i < n; ++i) g[i] = tanh_grad_fp64(y[i], g[i]);
}

// --- shared Adam update -----------------------------------------------------
// nn::Adam::step's per-element update, after the sequential grad-norm sum
// that sets c.clip. One op DAG: the scalar body below and the SIMD template
// that replays it (separate mul/add/sub/div/sqrt, each one IEEE rounding),
// so every backend returns the same bits.

/// One element of KernelBackend::adam_step; internal linkage, like
/// tanh_fp64. b1c/b2c are 1 − β1 and 1 − β2.
static inline void adam_fp64(double& p, double g, double& m, double& v,
                             const AdamCoeffs& c, double b1c, double b2c) {
  const double gc = g * c.clip;
  m = c.beta1 * m + b1c * gc;
  v = c.beta2 * v + b2c * gc * gc;
  const double mhat = m / c.bc1;
  const double vhat = v / c.bc2;
  p -= c.lr * mhat / (std::sqrt(vhat) + c.eps);
}

/// The SIMD adam_step body: adam_fp64 on V::kWidth elements at a time (V as
/// for tanh_rows_vec, plus sqrt), the n % kWidth tail through adam_fp64.
template <class V>
void adam_step_vec(double* p, const double* g, double* m, double* v,
                   std::size_t n, const AdamCoeffs& c) {
  using Vec = typename V::Vec;
  const double b1c = 1.0 - c.beta1;
  const double b2c = 1.0 - c.beta2;
  const Vec clip = V::set1(c.clip), beta1 = V::set1(c.beta1),
            beta2 = V::set1(c.beta2), b1v = V::set1(b1c), b2v = V::set1(b2c),
            bc1 = V::set1(c.bc1), bc2 = V::set1(c.bc2), lr = V::set1(c.lr),
            eps = V::set1(c.eps);
  std::size_t i = 0;
  for (; i + V::kWidth <= n; i += V::kWidth) {
    const Vec gc = V::mul(V::load(g + i), clip);
    const Vec mv = V::add(V::mul(beta1, V::load(m + i)), V::mul(b1v, gc));
    const Vec vv =
        V::add(V::mul(beta2, V::load(v + i)), V::mul(V::mul(b2v, gc), gc));
    V::store(m + i, mv);
    V::store(v + i, vv);
    const Vec mhat = V::div(mv, bc1);
    const Vec vhat = V::div(vv, bc2);
    const Vec step = V::div(V::mul(lr, mhat), V::add(V::sqrt(vhat), eps));
    V::store(p + i, V::sub(V::load(p + i), step));
  }
  for (; i < n; ++i) adam_fp64(p[i], g[i], m[i], v[i], c, b1c, b2c);
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

/// Q queries (q[j] points at query j's dim values) against R consecutive
/// row blocks starting at `blk` (`left` rows remain from there; more than
/// (R−1)·kKnnLanes). `V` is a backend's lane type: V::Vec holds one block
/// column (kKnnLanes rows), and
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
                                            std::size_t k,
                                            const double* const* q,
                                            double (*best)[kKnnMaxK]) {
  typename V::Vec acc[Q][R];
  for (auto& row : acc)
    for (auto& a : row) a = V::zero();
  for (std::size_t c = 0; c < dim; ++c) {
    typename V::Vec x[R];
    for (std::size_t h = 0; h < R; ++h)
      x[h] = V::load(blk + (h * dim + c) * kKnnLanes);
    for (std::size_t j = 0; j < Q; ++j) {
      const double qc = q[j][c];
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

/// True when no row beyond `key` in the scan direction can enter any of the
/// Q top-k lists. `key` is the sort coordinate of the nearest row on that
/// side (rows further on lie at least as far from the query along `axis`).
/// A row's chain sq = Σ fl(d_c·d_c) is a rounded sum of non-negative terms,
/// so it is ≥ its axis term, and rounding is monotone, so that term is ≥
/// fl(fl(key − q_axis)²) for every row past `key`. A query with key on its
/// near side gets the bound 0. Once the bound reaches a query's k-th best,
/// knn_insert's strict `<` rejects every row past `key`, and k-th bests only
/// fall, so a closed direction stays closed.
template <std::size_t Q>
static inline bool knn_closed(double key, bool up, const double* const* q,
                              std::size_t axis, std::size_t k,
                              const double (*best)[kKnnMaxK]) {
  for (std::size_t j = 0; j < Q; ++j) {
    const double d = key - q[j][axis];
    const double bound = (up ? d > 0.0 : d < 0.0) ? d * d : 0.0;
    if (!(bound >= best[j][k - 1])) return false;
  }
  return true;
}

/// Q queries against the rows a sorted-axis bound cannot rule out. Starting
/// at the block that holds the middle query's sort key, the window grows
/// one step up and one step down in turn (R blocks per step while that many
/// remain on the side, then one) until knn_closed shuts both sides.
template <class V, std::size_t Q, std::size_t R>
void knn_window(const double* blocks, std::size_t rows, std::size_t dim,
                std::size_t axis, std::size_t k, const double* const* q,
                double* const* kth) {
  double best[Q][kKnnMaxK];
  for (auto& b : best)
    std::fill(b, b + k, std::numeric_limits<double>::infinity());
  const auto key = [&](std::size_t r) {
    return blocks[knn_blocked_index(r, axis, dim)];
  };
  const std::size_t nblocks = (rows + kKnnLanes - 1) / kKnnLanes;
  const double mid = q[Q / 2][axis];
  std::size_t lo = 0, hi = rows;
  while (lo < hi) {
    const std::size_t m = lo + (hi - lo) / 2;
    if (key(m) < mid) lo = m + 1;
    else hi = m;
  }
  // Blocks [down, up) are scanned.
  std::size_t up = std::min(lo / kKnnLanes, nblocks - 1), down = up;
  bool up_open = true, down_open = down > 0;
  while (up_open || down_open) {
    if (up_open) {
      if (knn_closed<Q>(key(up * kKnnLanes), true, q, axis, k, best)) {
        up_open = false;
      } else {
        const std::size_t r0 = up * kKnnLanes;
        if (up + R <= nblocks) {
          knn_step<V, Q, R>(blocks + r0 * dim, rows - r0, dim, k, q, best);
          up += R;
        } else {
          knn_step<V, Q, 1>(blocks + r0 * dim, rows - r0, dim, k, q, best);
          ++up;
        }
        up_open = up < nblocks;
      }
    }
    if (down_open) {
      if (knn_closed<Q>(key(down * kKnnLanes - 1), false, q, axis, k, best)) {
        down_open = false;
      } else {
        const std::size_t n = down >= R ? R : 1;
        const std::size_t r0 = (down - n) * kKnnLanes;
        if (n == R)
          knn_step<V, Q, R>(blocks + r0 * dim, rows - r0, dim, k, q, best);
        else
          knn_step<V, Q, 1>(blocks + r0 * dim, rows - r0, dim, k, q, best);
        down -= n;
        down_open = down > 0;
      }
    }
  }
  for (std::size_t j = 0; j < Q; ++j) *kth[j] = best[j][k - 1];
}

/// The knn_scan entry of every backend (see KernelBackend::knn_scan). A
/// query holding a non-finite value is at +inf or NaN from every row, so it
/// gets +inf without a scan (and never reaches the sort below); so does
/// every query when rows < k. The rest are visited in sort-key order, in
/// batches of up to kSortBatch sorted on the stack (a scan allocates
/// nothing): tiles of 4 neighbouring queries share each row-block load
/// (kTileRows blocks per step), leftover queries go one at a time over
/// kSingleRows blocks per step — enough independent add chains to hide the
/// add latency either way.
template <class V, std::size_t kTileRows, std::size_t kSingleRows>
void knn_scan_window(const double* blocks, std::size_t rows, std::size_t dim,
                     std::size_t axis, std::size_t k, const double* queries,
                     std::size_t nq, std::size_t stride, double* kth) {
  constexpr std::size_t kKnnQueryTile = 4, kSortBatch = 512;
  for (std::size_t base = 0; base < nq; base += kSortBatch) {
    const double* qs = queries + base * stride;
    double* ks = kth + base;
    std::uint32_t order[kSortBatch];
    std::size_t m = 0;
    for (std::size_t i = 0; i < std::min(kSortBatch, nq - base); ++i) {
      ks[i] = std::numeric_limits<double>::infinity();
      const double* q = qs + i * stride;
      if (rows >= k && std::all_of(q, q + dim, [](double v) {
            return std::isfinite(v);
          }))
        order[m++] = static_cast<std::uint32_t>(i);
    }
    const auto key = [&](std::uint32_t i) { return qs[i * stride + axis]; };
    std::sort(order, order + m, [&](std::uint32_t a, std::uint32_t b) {
      return key(a) < key(b) || (key(a) == key(b) && a < b);
    });
    std::size_t t = 0;
    for (; t + kKnnQueryTile <= m; t += kKnnQueryTile) {
      const double* q[kKnnQueryTile];
      double* out[kKnnQueryTile];
      for (std::size_t j = 0; j < kKnnQueryTile; ++j) {
        q[j] = qs + order[t + j] * stride;
        out[j] = ks + order[t + j];
      }
      knn_window<V, kKnnQueryTile, kTileRows>(blocks, rows, dim, axis, k, q,
                                              out);
    }
    for (; t < m; ++t) {
      const double* q = qs + order[t] * stride;
      double* out = ks + order[t];
      knn_window<V, 1, kSingleRows>(blocks, rows, dim, axis, k, &q, &out);
    }
  }
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
                     std::size_t axis, std::size_t k, const double* queries,
                     std::size_t nq, std::size_t stride, double* kth);
void scalar_tanh_rows(const double* x, std::size_t n, double* y);
void scalar_tanh_grad(const double* y, std::size_t n, double* g);
void scalar_adam_step(double* p, const double* g, double* m, double* v,
                      std::size_t n, const AdamCoeffs& c);

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
                   std::size_t axis, std::size_t k, const double* queries,
                   std::size_t nq, std::size_t stride, double* kth);
void avx2_tanh_rows(const double* x, std::size_t n, double* y);
void avx2_tanh_grad(const double* y, std::size_t n, double* g);
void avx2_adam_step(double* p, const double* g, double* m, double* v,
                    std::size_t n, const AdamCoeffs& c);
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
                     std::size_t axis, std::size_t k, const double* queries,
                     std::size_t nq, std::size_t stride, double* kth);
void avx512_tanh_rows(const double* x, std::size_t n, double* y);
void avx512_tanh_grad(const double* y, std::size_t n, double* g);
void avx512_adam_step(double* p, const double* g, double* m, double* v,
                      std::size_t n, const AdamCoeffs& c);
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
                   std::size_t axis, std::size_t k, const double* queries,
                   std::size_t nq, std::size_t stride, double* kth);
#endif

}  // namespace imap::nn::kernel::detail
