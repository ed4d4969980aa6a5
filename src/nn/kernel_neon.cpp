// NEON backend (aarch64): 2-lane f64 vectors, same lane discipline as the
// x86 backends — lanes across independent output elements, separate
// vmulq/vaddq (never vfmaq) so each lane runs the exact scalar chain. The
// TU is compiled with -ffp-contract=off; asimd is baseline on aarch64 so no
// extra ISA flags are needed. No int8 kernel here: quant_affine is null in
// the registry and dispatch falls back to the scalar reference.

#ifdef IMAP_KERNEL_NEON

#include <arm_neon.h>

#include <vector>

#include "nn/kernel_impl.h"

namespace imap::nn::kernel::detail {

namespace {

const double* transposed(const double* w, const double* wt, std::size_t out,
                         std::size_t in) {
  if (wt != nullptr) return wt;
  thread_local std::vector<double> scratch;
  if (scratch.size() < in * out) scratch.resize(in * out);
  double* p = scratch.data();
  for (std::size_t r = 0; r < out; ++r)
    for (std::size_t c = 0; c < in; ++c) p[c * out + r] = w[r * in + c];
  return p;
}

}  // namespace

void neon_batch_affine(const double* w, const double* wt, const double* b,
                       std::size_t out, std::size_t in, const double* x,
                       std::size_t batch, double* y) {
  const double* wtp = transposed(w, wt, out, in);
  for (std::size_t n = 0; n < batch; ++n) {
    const double* xn = x + n * in;
    double* yn = y + n * out;
    std::size_t r = 0;
    for (; r + 8 <= out; r += 8) {
      float64x2_t a0, a1, a2, a3;
      if (b) {
        a0 = vld1q_f64(b + r);
        a1 = vld1q_f64(b + r + 2);
        a2 = vld1q_f64(b + r + 4);
        a3 = vld1q_f64(b + r + 6);
      } else {
        a0 = a1 = a2 = a3 = vdupq_n_f64(0.0);
      }
      for (std::size_t c = 0; c < in; ++c) {
        const float64x2_t xc = vdupq_n_f64(xn[c]);
        const double* col = wtp + c * out + r;
        a0 = vaddq_f64(a0, vmulq_f64(vld1q_f64(col), xc));
        a1 = vaddq_f64(a1, vmulq_f64(vld1q_f64(col + 2), xc));
        a2 = vaddq_f64(a2, vmulq_f64(vld1q_f64(col + 4), xc));
        a3 = vaddq_f64(a3, vmulq_f64(vld1q_f64(col + 6), xc));
      }
      vst1q_f64(yn + r, a0);
      vst1q_f64(yn + r + 2, a1);
      vst1q_f64(yn + r + 4, a2);
      vst1q_f64(yn + r + 6, a3);
    }
    for (; r + 2 <= out; r += 2) {
      float64x2_t a = b ? vld1q_f64(b + r) : vdupq_n_f64(0.0);
      for (std::size_t c = 0; c < in; ++c) {
        const float64x2_t xc = vdupq_n_f64(xn[c]);
        a = vaddq_f64(a, vmulq_f64(vld1q_f64(wtp + c * out + r), xc));
      }
      vst1q_f64(yn + r, a);
    }
    for (; r < out; ++r) {
      const double* row = w + r * in;
      double s = b ? b[r] : 0.0;
      for (std::size_t c = 0; c < in; ++c) s += row[c] * xn[c];
      yn[r] = s;
    }
  }
}

void neon_batch_matvec_t(const double* w, std::size_t out, std::size_t in,
                         const double* g, std::size_t batch, double* gin) {
  for (std::size_t n = 0; n < batch; ++n) {
    const double* gn = g + n * out;
    double* on = gin + n * in;
    std::size_t c = 0;
    for (; c + 8 <= in; c += 8) {
      float64x2_t a0 = vdupq_n_f64(0.0), a1 = vdupq_n_f64(0.0),
                  a2 = vdupq_n_f64(0.0), a3 = vdupq_n_f64(0.0);
      for (std::size_t r = 0; r < out; ++r) {
        const float64x2_t gr = vdupq_n_f64(gn[r]);
        const double* row = w + r * in + c;
        a0 = vaddq_f64(a0, vmulq_f64(vld1q_f64(row), gr));
        a1 = vaddq_f64(a1, vmulq_f64(vld1q_f64(row + 2), gr));
        a2 = vaddq_f64(a2, vmulq_f64(vld1q_f64(row + 4), gr));
        a3 = vaddq_f64(a3, vmulq_f64(vld1q_f64(row + 6), gr));
      }
      vst1q_f64(on + c, a0);
      vst1q_f64(on + c + 2, a1);
      vst1q_f64(on + c + 4, a2);
      vst1q_f64(on + c + 6, a3);
    }
    for (; c + 2 <= in; c += 2) {
      float64x2_t a = vdupq_n_f64(0.0);
      for (std::size_t r = 0; r < out; ++r) {
        const float64x2_t gr = vdupq_n_f64(gn[r]);
        a = vaddq_f64(a, vmulq_f64(vld1q_f64(w + r * in + c), gr));
      }
      vst1q_f64(on + c, a);
    }
    for (; c < in; ++c) {
      double s = 0.0;
      for (std::size_t r = 0; r < out; ++r) s += w[r * in + c] * gn[r];
      on[c] = s;
    }
  }
}

void neon_batch_outer_acc(const double* g, const double* x, std::size_t batch,
                          std::size_t out, std::size_t in, double* dw,
                          double* db) {
  for (std::size_t r = 0; r < out; ++r) {
    double* dwr = dw + r * in;
    std::size_t c = 0;
    for (; c + 8 <= in; c += 8) {
      float64x2_t a0 = vld1q_f64(dwr + c);
      float64x2_t a1 = vld1q_f64(dwr + c + 2);
      float64x2_t a2 = vld1q_f64(dwr + c + 4);
      float64x2_t a3 = vld1q_f64(dwr + c + 6);
      for (std::size_t n = 0; n < batch; ++n) {
        const float64x2_t gr = vdupq_n_f64(g[n * out + r]);
        const double* xn = x + n * in + c;
        a0 = vaddq_f64(a0, vmulq_f64(vld1q_f64(xn), gr));
        a1 = vaddq_f64(a1, vmulq_f64(vld1q_f64(xn + 2), gr));
        a2 = vaddq_f64(a2, vmulq_f64(vld1q_f64(xn + 4), gr));
        a3 = vaddq_f64(a3, vmulq_f64(vld1q_f64(xn + 6), gr));
      }
      vst1q_f64(dwr + c, a0);
      vst1q_f64(dwr + c + 2, a1);
      vst1q_f64(dwr + c + 4, a2);
      vst1q_f64(dwr + c + 6, a3);
    }
    for (; c + 2 <= in; c += 2) {
      float64x2_t a = vld1q_f64(dwr + c);
      for (std::size_t n = 0; n < batch; ++n) {
        const float64x2_t gr = vdupq_n_f64(g[n * out + r]);
        a = vaddq_f64(a, vmulq_f64(vld1q_f64(x + n * in + c), gr));
      }
      vst1q_f64(dwr + c, a);
    }
    for (; c < in; ++c) {
      double s = dwr[c];
      for (std::size_t n = 0; n < batch; ++n)
        s += g[n * out + r] * x[n * in + c];
      dwr[c] = s;
    }
    double sb = db[r];
    for (std::size_t n = 0; n < batch; ++n) sb += g[n * out + r];
    db[r] = sb;
  }
}

namespace {

/// knn_scan lanes: four 2-lane vectors hold one column of an eight-row
/// block.
struct NeonRows {
  struct Vec {
    float64x2_t v[4];
  };
  static Vec zero() {
    const float64x2_t z = vdupq_n_f64(0.0);
    return {{z, z, z, z}};
  }
  static Vec load(const double* p) {
    return {{vld1q_f64(p), vld1q_f64(p + 2), vld1q_f64(p + 4),
             vld1q_f64(p + 6)}};
  }
  static Vec acc_sq(Vec acc, Vec x, double q) {
    const float64x2_t qv = vdupq_n_f64(q);
    for (int h = 0; h < 4; ++h) {
      const float64x2_t d = vsubq_f64(x.v[h], qv);
      acc.v[h] = vaddq_f64(acc.v[h], vmulq_f64(d, d));
    }
    return acc;
  }
  static unsigned lt_mask(Vec a, double t) {
    const float64x2_t tv = vdupq_n_f64(t);
    unsigned m = 0;
    for (int h = 0; h < 4; ++h) {
      const uint64x2_t lt = vcltq_f64(a.v[h], tv);
      m |= static_cast<unsigned>(vgetq_lane_u64(lt, 0) & 1u) << (2 * h);
      m |= static_cast<unsigned>(vgetq_lane_u64(lt, 1) & 1u) << (2 * h + 1);
    }
    return m;
  }
  static void store(double* p, Vec a) {
    for (int h = 0; h < 4; ++h) vst1q_f64(p + 2 * h, a.v[h]);
  }
};

}  // namespace

void neon_knn_scan(const double* blocks, std::size_t rows, std::size_t dim,
                   std::size_t axis, std::size_t k, const double* queries,
                   std::size_t nq, std::size_t stride, double* kth) {
  knn_scan_window<NeonRows, 1, 2>(blocks, rows, dim, axis, k, queries, nq,
                                  stride, kth);
}

}  // namespace imap::nn::kernel::detail

#endif  // IMAP_KERNEL_NEON
