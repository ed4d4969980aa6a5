// Scalar reference backend: the blocked (but SIMD-free) batched kernels that
// every other backend is pinned against. Per-(n,r) the reduction chain is the
// per-sample kernel::affine / matvec_t_acc / outer_acc chain exactly, so this
// backend defines the bit pattern the fp64 contract demands.

#include <algorithm>
#include <bit>
#include <limits>

#include "nn/kernel_impl.h"
#include "nn/matrix.h"

namespace imap::nn::kernel::detail {

void scalar_batch_affine(const double* w, const double* /*wt*/,
                         const double* b, std::size_t out, std::size_t in,
                         const double* x, std::size_t batch, double* y) {
  std::size_t n = 0;
  // 4-row blocks: one pass over each weight row serves four samples. The
  // four accumulators are independent and each runs c = 0..in-1 in order,
  // so every output bit-matches the per-sample affine() path.
  for (; n + 4 <= batch; n += 4) {
    const double* x0 = x + n * in;
    const double* x1 = x0 + in;
    const double* x2 = x1 + in;
    const double* x3 = x2 + in;
    double* y0 = y + n * out;
    double* y1 = y0 + out;
    double* y2 = y1 + out;
    double* y3 = y2 + out;
    for (std::size_t r = 0; r < out; ++r) {
      const double* row = w + r * in;
      const double br = b ? b[r] : 0.0;
      double s0 = br, s1 = br, s2 = br, s3 = br;
      for (std::size_t c = 0; c < in; ++c) {
        const double wc = row[c];
        s0 += wc * x0[c];
        s1 += wc * x1[c];
        s2 += wc * x2[c];
        s3 += wc * x3[c];
      }
      y0[r] = s0;
      y1[r] = s1;
      y2[r] = s2;
      y3[r] = s3;
    }
  }
  for (; n < batch; ++n) affine(w, b, out, in, x + n * in, y + n * out);
}

void scalar_batch_matvec_t(const double* w, std::size_t out, std::size_t in,
                           const double* g, std::size_t batch, double* gin) {
  std::size_t n = 0;
  for (; n + 4 <= batch; n += 4) {
    const double* g0 = g + n * out;
    const double* g1 = g0 + out;
    const double* g2 = g1 + out;
    const double* g3 = g2 + out;
    double* o0 = gin + n * in;
    double* o1 = o0 + in;
    double* o2 = o1 + in;
    double* o3 = o2 + in;
    for (std::size_t c = 0; c < in; ++c) o0[c] = o1[c] = o2[c] = o3[c] = 0.0;
    // r-outer / c-inner, matching matvec_t_acc: each gin element receives
    // its contributions in ascending r order.
    for (std::size_t r = 0; r < out; ++r) {
      const double* row = w + r * in;
      const double a0 = g0[r], a1 = g1[r], a2 = g2[r], a3 = g3[r];
      for (std::size_t c = 0; c < in; ++c) {
        const double wc = row[c];
        o0[c] += wc * a0;
        o1[c] += wc * a1;
        o2[c] += wc * a2;
        o3[c] += wc * a3;
      }
    }
  }
  for (; n < batch; ++n) {
    double* o = gin + n * in;
    for (std::size_t c = 0; c < in; ++c) o[c] = 0.0;
    matvec_t_acc(w, out, in, g + n * out, o);
  }
}

void scalar_batch_outer_acc(const double* g, const double* x,
                            std::size_t batch, std::size_t out, std::size_t in,
                            double* dw, double* db) {
  // Sample-major: each dw/db entry accumulates its per-sample contributions
  // in ascending n order — bit-identical to per-sample accumulation. The
  // dw block (out×in) is revisited per sample but stays cache-resident for
  // the layer widths this library uses.
  for (std::size_t n = 0; n < batch; ++n) {
    const double* gn = g + n * out;
    const double* xn = x + n * in;
    outer_acc(dw, out, in, gn, xn, 1.0);
    for (std::size_t r = 0; r < out; ++r) db[r] += gn[r];
  }
}

void scalar_quant_affine(const std::int16_t* wq_packed, const float* row_scale,
                         const float* bias, std::size_t out,
                         std::size_t in_pairs, const std::int16_t* xq,
                         const float* xscale, std::size_t batch, float* y) {
  // Reference chain for the int8 kernel: int32 accumulation over column
  // pairs (exact, hence backend-invariant), then the fixed three-op float
  // dequant — t = row_scale·xscale, y = float(acc)·t + bias — which every
  // SIMD variant executes with the same single roundings per element.
  //
  // The weights arrive tile-major (see kernel_backend.h): a kQuantTile-row
  // tile's 2·kQuantTile·in_pairs codes are contiguous, so the whole tile
  // distributes evenly across cache sets and stays resident while the batch
  // sweep reuses it — the weight matrix streams from memory once per batch
  // instead of once per sample. Per-element arithmetic order (the p chain)
  // is untouched — tile/lane/sample loop order cannot change any rounding,
  // so results stay bit-identical for every batch size.
  const std::size_t full = out / kQuantTile;
  for (std::size_t tile = 0; tile < full; ++tile) {
    const std::int16_t* wt = wq_packed + tile * in_pairs * 2 * kQuantTile;
    for (std::size_t lane = 0; lane < kQuantTile; ++lane) {
      const std::size_t r = tile * kQuantTile + lane;
      const float rs = row_scale[r];
      const float br = bias[r];
      for (std::size_t n = 0; n < batch; ++n) {
        const std::int16_t* xr = xq + n * 2 * in_pairs;
        std::int32_t acc = 0;
        for (std::size_t p = 0; p < in_pairs; ++p) {
          const std::int16_t* wp = wt + p * 2 * kQuantTile + lane * 2;
          acc += static_cast<std::int32_t>(wp[0]) *
                     static_cast<std::int32_t>(xr[2 * p]) +
                 static_cast<std::int32_t>(wp[1]) *
                     static_cast<std::int32_t>(xr[2 * p + 1]);
        }
        const float t = rs * xscale[n];
        y[n * out + r] = static_cast<float>(acc) * t + br;
      }
    }
  }
  // Remainder rows (out % kQuantTile) live after the tiles in
  // column-pair-major order of width w — small enough to stay cached.
  const std::size_t w = out - full * kQuantTile;
  const std::int16_t* wrem = wq_packed + full * in_pairs * 2 * kQuantTile;
  for (std::size_t lane = 0; lane < w; ++lane) {
    const std::size_t r = full * kQuantTile + lane;
    const float rs = row_scale[r];
    const float br = bias[r];
    for (std::size_t n = 0; n < batch; ++n) {
      const std::int16_t* xr = xq + n * 2 * in_pairs;
      std::int32_t acc = 0;
      for (std::size_t p = 0; p < in_pairs; ++p) {
        const std::int16_t* wp = wrem + (p * w + lane) * 2;
        acc += static_cast<std::int32_t>(wp[0]) *
                   static_cast<std::int32_t>(xr[2 * p]) +
               static_cast<std::int32_t>(wp[1]) *
                   static_cast<std::int32_t>(xr[2 * p + 1]);
      }
      const float t = rs * xscale[n];
      y[n * out + r] = static_cast<float>(acc) * t + br;
    }
  }
}

void scalar_quant_act(float* h, std::size_t batch, std::size_t width,
                      std::size_t out_pairs, std::int16_t* qx, float* qscale) {
  // Reference chain for the fused tanh + requantize step. The row abs-max is
  // taken on the absolute float bit patterns (an exact, order-free integer
  // reduction — for non-NaN floats |a| <= |b| iff their masked bits compare
  // the same way), so vectorised reductions match this loop bit for bit.
  const std::size_t stride = 2 * out_pairs;
  for (std::size_t n = 0; n < batch; ++n) {
    float* hn = h + n * width;
    std::int16_t* qn = qx + n * stride;
    std::uint32_t m = 0;
    for (std::size_t c = 0; c < width; ++c) {
      hn[c] = quant_fast_tanh(hn[c]);
      m = std::max(m, std::bit_cast<std::uint32_t>(hn[c]) & 0x7fffffffu);
    }
    if (m != 0) {
      const float amax = std::bit_cast<float>(m);
      const float inv = 127.0f / amax;
      for (std::size_t c = 0; c < width; ++c) qn[c] = quant_code(hn[c] * inv);
      qscale[n] = amax / 127.0f;
    } else {
      for (std::size_t c = 0; c < width; ++c) qn[c] = 0;
      qscale[n] = 0.0f;
    }
    for (std::size_t c = width; c < stride; ++c) qn[c] = 0;
  }
}

namespace {

/// knn_scan lanes without SIMD: one column of an eight-row block as eight
/// doubles, each lane one (query, row) chain.
struct ScalarRows {
  struct Vec {
    double v[kKnnLanes];
  };
  static Vec zero() { return {}; }
  static Vec load(const double* p) {
    Vec x;
    std::copy(p, p + kKnnLanes, x.v);
    return x;
  }
  static Vec acc_sq(Vec acc, Vec x, double q) {
    for (std::size_t l = 0; l < kKnnLanes; ++l) {
      const double d = x.v[l] - q;
      acc.v[l] += d * d;
    }
    return acc;
  }
  static unsigned lt_mask(Vec a, double t) {
    unsigned m = 0;
    for (std::size_t l = 0; l < kKnnLanes; ++l)
      m |= static_cast<unsigned>(a.v[l] < t) << l;
    return m;
  }
  static void store(double* p, Vec a) { std::copy(a.v, a.v + kKnnLanes, p); }
};

}  // namespace

void scalar_knn_scan(const double* blocks, std::size_t rows, std::size_t dim,
                     std::size_t axis, std::size_t k, const double* queries,
                     std::size_t nq, std::size_t stride, double* kth) {
  knn_scan_window<ScalarRows, 1, 1>(blocks, rows, dim, axis, k, queries, nq,
                                    stride, kth);
}

void scalar_tanh_rows(const double* x, std::size_t n, double* y) {
  for (std::size_t i = 0; i < n; ++i) y[i] = tanh_fp64(x[i]);
}

void scalar_tanh_grad(const double* y, std::size_t n, double* g) {
  for (std::size_t i = 0; i < n; ++i) g[i] = tanh_grad_fp64(y[i], g[i]);
}

void scalar_adam_step(double* p, const double* g, double* m, double* v,
                      std::size_t n, const AdamCoeffs& c) {
  const double b1c = 1.0 - c.beta1;
  const double b2c = 1.0 - c.beta2;
  for (std::size_t i = 0; i < n; ++i)
    adam_fp64(p[i], g[i], m[i], v[i], c, b1c, b2c);
}

}  // namespace imap::nn::kernel::detail
