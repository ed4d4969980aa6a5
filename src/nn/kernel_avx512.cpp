// AVX-512 backend: same lane discipline as AVX2 (lanes across independent
// output elements, each lane running the exact scalar reduction chain) at
// twice the width — 8 doubles per zmm for the fp64 kernels, 16 int32 dot
// pairs per zmm for the int8 serving kernel. The TU is compiled with
// -mavx512f -mavx512bw -mno-fma -ffp-contract=off; tails reuse masked loads
// where cheap and plain scalar otherwise, both preserving bit-identity.

#ifdef IMAP_KERNEL_AVX512

#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <cstring>
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

// Single-row bodies of the fp64 kernels: they serve batch-1 calls (every
// one-slot rollout tick, whose speed is gated) and the rows left after the
// last block.

inline void affine_row(const double* wtp, const double* b, std::size_t out,
                       std::size_t in, const double* xn, double* yn) {
  std::size_t r = 0;
  for (; r + 16 <= out; r += 16) {
    __m512d a0, a1;
    if (b) {
      a0 = _mm512_loadu_pd(b + r);
      a1 = _mm512_loadu_pd(b + r + 8);
    } else {
      a0 = a1 = _mm512_setzero_pd();
    }
    for (std::size_t c = 0; c < in; ++c) {
      const __m512d xc = _mm512_set1_pd(xn[c]);
      const double* col = wtp + c * out + r;
      a0 = _mm512_add_pd(a0, _mm512_mul_pd(_mm512_loadu_pd(col), xc));
      a1 = _mm512_add_pd(a1, _mm512_mul_pd(_mm512_loadu_pd(col + 8), xc));
    }
    _mm512_storeu_pd(yn + r, a0);
    _mm512_storeu_pd(yn + r + 8, a1);
  }
  for (; r + 8 <= out; r += 8) {
    __m512d a = b ? _mm512_loadu_pd(b + r) : _mm512_setzero_pd();
    for (std::size_t c = 0; c < in; ++c) {
      const __m512d xc = _mm512_set1_pd(xn[c]);
      a = _mm512_add_pd(a,
                        _mm512_mul_pd(_mm512_loadu_pd(wtp + c * out + r), xc));
    }
    _mm512_storeu_pd(yn + r, a);
  }
  if (r < out) {
    const __mmask8 m = static_cast<__mmask8>((1u << (out - r)) - 1u);
    __m512d a = b ? _mm512_maskz_loadu_pd(m, b + r) : _mm512_setzero_pd();
    for (std::size_t c = 0; c < in; ++c) {
      const __m512d xc = _mm512_set1_pd(xn[c]);
      const __m512d wv = _mm512_maskz_loadu_pd(m, wtp + c * out + r);
      a = _mm512_add_pd(a, _mm512_mul_pd(wv, xc));
    }
    _mm512_mask_storeu_pd(yn + r, m, a);
  }
}

// Lanes 0..k-1 of a zmm of doubles (all eight when k >= 8). The 4-row
// blocks run what is left after their 16-wide slices through masked loads
// and stores: inactive lanes load zeros and are never stored.
inline __mmask8 lane_mask(std::size_t k) {
  return k >= 8 ? static_cast<__mmask8>(0xff)
                : static_cast<__mmask8>((1u << k) - 1u);
}

// Four rows per pass over Wᵀ: each weight slice is loaded once for four
// rows, and the rows' accumulators are independent chains, so consecutive
// adds do not wait on each other. Per lane the chain is still b[r], then
// += w[r][c]·x[n][c] for ascending c.
inline void affine_rows4(const double* wtp, const double* b, std::size_t out,
                         std::size_t in, const double* x, double* y) {
  const double* x0 = x;
  const double* x1 = x0 + in;
  const double* x2 = x1 + in;
  const double* x3 = x2 + in;
  double* y0 = y;
  double* y1 = y0 + out;
  double* y2 = y1 + out;
  double* y3 = y2 + out;
  std::size_t r = 0;
  for (; r + 16 <= out; r += 16) {
    const __m512d b0 = b ? _mm512_loadu_pd(b + r) : _mm512_setzero_pd();
    const __m512d b1 = b ? _mm512_loadu_pd(b + r + 8) : _mm512_setzero_pd();
    __m512d a00 = b0, a01 = b1, a10 = b0, a11 = b1;
    __m512d a20 = b0, a21 = b1, a30 = b0, a31 = b1;
    for (std::size_t c = 0; c < in; ++c) {
      const double* col = wtp + c * out + r;
      const __m512d w0 = _mm512_loadu_pd(col);
      const __m512d w1 = _mm512_loadu_pd(col + 8);
      __m512d xc = _mm512_set1_pd(x0[c]);
      a00 = _mm512_add_pd(a00, _mm512_mul_pd(w0, xc));
      a01 = _mm512_add_pd(a01, _mm512_mul_pd(w1, xc));
      xc = _mm512_set1_pd(x1[c]);
      a10 = _mm512_add_pd(a10, _mm512_mul_pd(w0, xc));
      a11 = _mm512_add_pd(a11, _mm512_mul_pd(w1, xc));
      xc = _mm512_set1_pd(x2[c]);
      a20 = _mm512_add_pd(a20, _mm512_mul_pd(w0, xc));
      a21 = _mm512_add_pd(a21, _mm512_mul_pd(w1, xc));
      xc = _mm512_set1_pd(x3[c]);
      a30 = _mm512_add_pd(a30, _mm512_mul_pd(w0, xc));
      a31 = _mm512_add_pd(a31, _mm512_mul_pd(w1, xc));
    }
    _mm512_storeu_pd(y0 + r, a00);
    _mm512_storeu_pd(y0 + r + 8, a01);
    _mm512_storeu_pd(y1 + r, a10);
    _mm512_storeu_pd(y1 + r + 8, a11);
    _mm512_storeu_pd(y2 + r, a20);
    _mm512_storeu_pd(y2 + r + 8, a21);
    _mm512_storeu_pd(y3 + r, a30);
    _mm512_storeu_pd(y3 + r + 8, a31);
  }
  for (; r < out; r += 8) {
    const __mmask8 m = lane_mask(out - r);
    const __m512d bv =
        b ? _mm512_maskz_loadu_pd(m, b + r) : _mm512_setzero_pd();
    __m512d a0 = bv, a1 = bv, a2 = bv, a3 = bv;
    for (std::size_t c = 0; c < in; ++c) {
      const __m512d wv = _mm512_maskz_loadu_pd(m, wtp + c * out + r);
      a0 = _mm512_add_pd(a0, _mm512_mul_pd(wv, _mm512_set1_pd(x0[c])));
      a1 = _mm512_add_pd(a1, _mm512_mul_pd(wv, _mm512_set1_pd(x1[c])));
      a2 = _mm512_add_pd(a2, _mm512_mul_pd(wv, _mm512_set1_pd(x2[c])));
      a3 = _mm512_add_pd(a3, _mm512_mul_pd(wv, _mm512_set1_pd(x3[c])));
    }
    _mm512_mask_storeu_pd(y0 + r, m, a0);
    _mm512_mask_storeu_pd(y1 + r, m, a1);
    _mm512_mask_storeu_pd(y2 + r, m, a2);
    _mm512_mask_storeu_pd(y3 + r, m, a3);
  }
}

// Narrow heads (out < 8, e.g. the value head's single output): lanes run
// across eight rows instead of across outputs. `xt` receives the block of x
// transposed to in×8, so one load reads column c of all eight rows; per
// lane the chain is b[r], then += w[r][c]·x[n][c] for ascending c.
inline void affine_rows8_narrow(const double* w, const double* b,
                                std::size_t out, std::size_t in,
                                const double* x, double* y, double* xt) {
  for (std::size_t l = 0; l < 8; ++l)
    for (std::size_t c = 0; c < in; ++c) xt[c * 8 + l] = x[l * in + c];
  alignas(64) double lanes[8];
  for (std::size_t r = 0; r < out; ++r) {
    const double* row = w + r * in;
    __m512d a = b ? _mm512_set1_pd(b[r]) : _mm512_setzero_pd();
    for (std::size_t c = 0; c < in; ++c)
      a = _mm512_add_pd(a, _mm512_mul_pd(_mm512_set1_pd(row[c]),
                                         _mm512_loadu_pd(xt + c * 8)));
    _mm512_store_pd(lanes, a);
    for (std::size_t l = 0; l < 8; ++l) y[l * out + r] = lanes[l];
  }
}

inline void matvec_t_row(const double* w, std::size_t out, std::size_t in,
                         const double* gn, double* on) {
  std::size_t c = 0;
  for (; c + 16 <= in; c += 16) {
    __m512d a0 = _mm512_setzero_pd(), a1 = _mm512_setzero_pd();
    for (std::size_t r = 0; r < out; ++r) {
      const __m512d gr = _mm512_set1_pd(gn[r]);
      const double* row = w + r * in + c;
      a0 = _mm512_add_pd(a0, _mm512_mul_pd(_mm512_loadu_pd(row), gr));
      a1 = _mm512_add_pd(a1, _mm512_mul_pd(_mm512_loadu_pd(row + 8), gr));
    }
    _mm512_storeu_pd(on + c, a0);
    _mm512_storeu_pd(on + c + 8, a1);
  }
  for (; c + 8 <= in; c += 8) {
    __m512d a = _mm512_setzero_pd();
    for (std::size_t r = 0; r < out; ++r) {
      const __m512d gr = _mm512_set1_pd(gn[r]);
      a = _mm512_add_pd(a, _mm512_mul_pd(_mm512_loadu_pd(w + r * in + c), gr));
    }
    _mm512_storeu_pd(on + c, a);
  }
  if (c < in) {
    const __mmask8 m = static_cast<__mmask8>((1u << (in - c)) - 1u);
    __m512d a = _mm512_setzero_pd();
    for (std::size_t r = 0; r < out; ++r) {
      const __m512d gr = _mm512_set1_pd(gn[r]);
      const __m512d wv = _mm512_maskz_loadu_pd(m, w + r * in + c);
      a = _mm512_add_pd(a, _mm512_mul_pd(wv, gr));
    }
    _mm512_mask_storeu_pd(on + c, m, a);
  }
}

// Four rows per pass over W, as in affine_rows4: per lane each gin element
// starts at 0 and accumulates w[r][c]·g[n][r] for ascending r.
inline void matvec_t_rows4(const double* w, std::size_t out, std::size_t in,
                           const double* g, double* gin) {
  const double* g0 = g;
  const double* g1 = g0 + out;
  const double* g2 = g1 + out;
  const double* g3 = g2 + out;
  double* o0 = gin;
  double* o1 = o0 + in;
  double* o2 = o1 + in;
  double* o3 = o2 + in;
  std::size_t c = 0;
  for (; c + 16 <= in; c += 16) {
    __m512d a00 = _mm512_setzero_pd(), a01 = _mm512_setzero_pd();
    __m512d a10 = _mm512_setzero_pd(), a11 = _mm512_setzero_pd();
    __m512d a20 = _mm512_setzero_pd(), a21 = _mm512_setzero_pd();
    __m512d a30 = _mm512_setzero_pd(), a31 = _mm512_setzero_pd();
    for (std::size_t r = 0; r < out; ++r) {
      const double* row = w + r * in + c;
      const __m512d w0 = _mm512_loadu_pd(row);
      const __m512d w1 = _mm512_loadu_pd(row + 8);
      __m512d gr = _mm512_set1_pd(g0[r]);
      a00 = _mm512_add_pd(a00, _mm512_mul_pd(w0, gr));
      a01 = _mm512_add_pd(a01, _mm512_mul_pd(w1, gr));
      gr = _mm512_set1_pd(g1[r]);
      a10 = _mm512_add_pd(a10, _mm512_mul_pd(w0, gr));
      a11 = _mm512_add_pd(a11, _mm512_mul_pd(w1, gr));
      gr = _mm512_set1_pd(g2[r]);
      a20 = _mm512_add_pd(a20, _mm512_mul_pd(w0, gr));
      a21 = _mm512_add_pd(a21, _mm512_mul_pd(w1, gr));
      gr = _mm512_set1_pd(g3[r]);
      a30 = _mm512_add_pd(a30, _mm512_mul_pd(w0, gr));
      a31 = _mm512_add_pd(a31, _mm512_mul_pd(w1, gr));
    }
    _mm512_storeu_pd(o0 + c, a00);
    _mm512_storeu_pd(o0 + c + 8, a01);
    _mm512_storeu_pd(o1 + c, a10);
    _mm512_storeu_pd(o1 + c + 8, a11);
    _mm512_storeu_pd(o2 + c, a20);
    _mm512_storeu_pd(o2 + c + 8, a21);
    _mm512_storeu_pd(o3 + c, a30);
    _mm512_storeu_pd(o3 + c + 8, a31);
  }
  for (; c < in; c += 8) {
    const __mmask8 m = lane_mask(in - c);
    __m512d a0 = _mm512_setzero_pd(), a1 = _mm512_setzero_pd();
    __m512d a2 = _mm512_setzero_pd(), a3 = _mm512_setzero_pd();
    for (std::size_t r = 0; r < out; ++r) {
      const __m512d wv = _mm512_maskz_loadu_pd(m, w + r * in + c);
      a0 = _mm512_add_pd(a0, _mm512_mul_pd(wv, _mm512_set1_pd(g0[r])));
      a1 = _mm512_add_pd(a1, _mm512_mul_pd(wv, _mm512_set1_pd(g1[r])));
      a2 = _mm512_add_pd(a2, _mm512_mul_pd(wv, _mm512_set1_pd(g2[r])));
      a3 = _mm512_add_pd(a3, _mm512_mul_pd(wv, _mm512_set1_pd(g3[r])));
    }
    _mm512_mask_storeu_pd(o0 + c, m, a0);
    _mm512_mask_storeu_pd(o1 + c, m, a1);
    _mm512_mask_storeu_pd(o2 + c, m, a2);
    _mm512_mask_storeu_pd(o3 + c, m, a3);
  }
}

// dW row r and db[r] over the whole batch, one output row at a time.
inline void outer_acc_row(const double* g, const double* x, std::size_t batch,
                          std::size_t out, std::size_t in, std::size_t r,
                          double* dw, double* db) {
  double* dwr = dw + r * in;
  std::size_t c = 0;
  for (; c + 16 <= in; c += 16) {
    __m512d a0 = _mm512_loadu_pd(dwr + c);
    __m512d a1 = _mm512_loadu_pd(dwr + c + 8);
    for (std::size_t n = 0; n < batch; ++n) {
      const __m512d gr = _mm512_set1_pd(g[n * out + r]);
      const double* xn = x + n * in + c;
      a0 = _mm512_add_pd(a0, _mm512_mul_pd(_mm512_loadu_pd(xn), gr));
      a1 = _mm512_add_pd(a1, _mm512_mul_pd(_mm512_loadu_pd(xn + 8), gr));
    }
    _mm512_storeu_pd(dwr + c, a0);
    _mm512_storeu_pd(dwr + c + 8, a1);
  }
  for (; c + 8 <= in; c += 8) {
    __m512d a = _mm512_loadu_pd(dwr + c);
    for (std::size_t n = 0; n < batch; ++n) {
      const __m512d gr = _mm512_set1_pd(g[n * out + r]);
      a = _mm512_add_pd(a, _mm512_mul_pd(_mm512_loadu_pd(x + n * in + c), gr));
    }
    _mm512_storeu_pd(dwr + c, a);
  }
  if (c < in) {
    const __mmask8 m = static_cast<__mmask8>((1u << (in - c)) - 1u);
    __m512d a = _mm512_maskz_loadu_pd(m, dwr + c);
    for (std::size_t n = 0; n < batch; ++n) {
      const __m512d gr = _mm512_set1_pd(g[n * out + r]);
      const __m512d xv = _mm512_maskz_loadu_pd(m, x + n * in + c);
      a = _mm512_add_pd(a, _mm512_mul_pd(xv, gr));
    }
    _mm512_mask_storeu_pd(dwr + c, m, a);
  }
  double sb = db[r];
  for (std::size_t n = 0; n < batch; ++n) sb += g[n * out + r];
  db[r] = sb;
}

// Output rows r..r+3 per pass over the batch: each x slice is loaded once
// for four rows, whose dW accumulators are independent chains. db[r..r+3]
// runs as one vector with lanes across the four outputs. Every entry still
// accumulates its per-sample terms in ascending n.
inline void outer_acc_rows4(const double* g, const double* x,
                            std::size_t batch, std::size_t out,
                            std::size_t in, std::size_t r, double* dw,
                            double* db) {
  double* d0 = dw + r * in;
  double* d1 = d0 + in;
  double* d2 = d1 + in;
  double* d3 = d2 + in;
  std::size_t c = 0;
  for (; c + 16 <= in; c += 16) {
    __m512d a00 = _mm512_loadu_pd(d0 + c), a01 = _mm512_loadu_pd(d0 + c + 8);
    __m512d a10 = _mm512_loadu_pd(d1 + c), a11 = _mm512_loadu_pd(d1 + c + 8);
    __m512d a20 = _mm512_loadu_pd(d2 + c), a21 = _mm512_loadu_pd(d2 + c + 8);
    __m512d a30 = _mm512_loadu_pd(d3 + c), a31 = _mm512_loadu_pd(d3 + c + 8);
    for (std::size_t n = 0; n < batch; ++n) {
      const double* xn = x + n * in + c;
      const double* gn = g + n * out + r;
      const __m512d x0 = _mm512_loadu_pd(xn);
      const __m512d x1 = _mm512_loadu_pd(xn + 8);
      __m512d gr = _mm512_set1_pd(gn[0]);
      a00 = _mm512_add_pd(a00, _mm512_mul_pd(x0, gr));
      a01 = _mm512_add_pd(a01, _mm512_mul_pd(x1, gr));
      gr = _mm512_set1_pd(gn[1]);
      a10 = _mm512_add_pd(a10, _mm512_mul_pd(x0, gr));
      a11 = _mm512_add_pd(a11, _mm512_mul_pd(x1, gr));
      gr = _mm512_set1_pd(gn[2]);
      a20 = _mm512_add_pd(a20, _mm512_mul_pd(x0, gr));
      a21 = _mm512_add_pd(a21, _mm512_mul_pd(x1, gr));
      gr = _mm512_set1_pd(gn[3]);
      a30 = _mm512_add_pd(a30, _mm512_mul_pd(x0, gr));
      a31 = _mm512_add_pd(a31, _mm512_mul_pd(x1, gr));
    }
    _mm512_storeu_pd(d0 + c, a00);
    _mm512_storeu_pd(d0 + c + 8, a01);
    _mm512_storeu_pd(d1 + c, a10);
    _mm512_storeu_pd(d1 + c + 8, a11);
    _mm512_storeu_pd(d2 + c, a20);
    _mm512_storeu_pd(d2 + c + 8, a21);
    _mm512_storeu_pd(d3 + c, a30);
    _mm512_storeu_pd(d3 + c + 8, a31);
  }
  for (; c < in; c += 8) {
    const __mmask8 m = lane_mask(in - c);
    __m512d a0 = _mm512_maskz_loadu_pd(m, d0 + c);
    __m512d a1 = _mm512_maskz_loadu_pd(m, d1 + c);
    __m512d a2 = _mm512_maskz_loadu_pd(m, d2 + c);
    __m512d a3 = _mm512_maskz_loadu_pd(m, d3 + c);
    for (std::size_t n = 0; n < batch; ++n) {
      const double* gn = g + n * out + r;
      const __m512d xv = _mm512_maskz_loadu_pd(m, x + n * in + c);
      a0 = _mm512_add_pd(a0, _mm512_mul_pd(xv, _mm512_set1_pd(gn[0])));
      a1 = _mm512_add_pd(a1, _mm512_mul_pd(xv, _mm512_set1_pd(gn[1])));
      a2 = _mm512_add_pd(a2, _mm512_mul_pd(xv, _mm512_set1_pd(gn[2])));
      a3 = _mm512_add_pd(a3, _mm512_mul_pd(xv, _mm512_set1_pd(gn[3])));
    }
    _mm512_mask_storeu_pd(d0 + c, m, a0);
    _mm512_mask_storeu_pd(d1 + c, m, a1);
    _mm512_mask_storeu_pd(d2 + c, m, a2);
    _mm512_mask_storeu_pd(d3 + c, m, a3);
  }
  __m256d sb = _mm256_loadu_pd(db + r);
  for (std::size_t n = 0; n < batch; ++n)
    sb = _mm256_add_pd(sb, _mm256_loadu_pd(g + n * out + r));
  _mm256_storeu_pd(db + r, sb);
}

}  // namespace

// Each kernel runs blocks of four rows (output rows for outer_acc), then
// the single-row body for the rest; affine with out < 8 puts lanes across
// eight rows instead. Every output element keeps its scalar chain, so all
// paths are bit-identical to the scalar backend.

void avx512_batch_affine(const double* w, const double* wt, const double* b,
                         std::size_t out, std::size_t in, const double* x,
                         std::size_t batch, double* y) {
  std::size_t n = 0;
  if (out < 8 && batch >= 8) {
    thread_local std::vector<double> xt;
    if (xt.size() < in * 8) xt.resize(in * 8);
    for (; n + 8 <= batch; n += 8)
      affine_rows8_narrow(w, b, out, in, x + n * in, y + n * out, xt.data());
  }
  if (n == batch) return;
  const double* wtp = transposed(w, wt, out, in);
  if (out >= 8)
    for (; n + 4 <= batch; n += 4)
      affine_rows4(wtp, b, out, in, x + n * in, y + n * out);
  for (; n < batch; ++n) affine_row(wtp, b, out, in, x + n * in, y + n * out);
}

void avx512_batch_matvec_t(const double* w, std::size_t out, std::size_t in,
                           const double* g, std::size_t batch, double* gin) {
  std::size_t n = 0;
  for (; n + 4 <= batch; n += 4)
    matvec_t_rows4(w, out, in, g + n * out, gin + n * in);
  for (; n < batch; ++n) matvec_t_row(w, out, in, g + n * out, gin + n * in);
}

void avx512_batch_outer_acc(const double* g, const double* x,
                            std::size_t batch, std::size_t out, std::size_t in,
                            double* dw, double* db) {
  std::size_t r = 0;
  for (; r + 4 <= out; r += 4) outer_acc_rows4(g, x, batch, out, in, r, dw, db);
  for (; r < out; ++r) outer_acc_row(g, x, batch, out, in, r, dw, db);
}

namespace {

/// One 32-bit load broadcast of the activation pair at `p2`: little-endian
/// memory already holds lo | hi<<16, so no shift/or reassembly is needed.
inline __m512i bcast_pair(const std::int16_t* p2) {
  std::int32_t word;
  std::memcpy(&word, p2, sizeof word);
  return _mm512_set1_epi32(word);
}

// Full-tile sweep of the int8 kernel over the tile-major layout
// (kernel_backend.h): a kQuantTile-row tile is 2·kQuantTile·in_pairs
// contiguous codes, so the p loop streams consecutive 64-byte lines — one
// _mm512_loadu_si512 each — and the whole tile stays cache-resident across
// the batch sweep. Samples are blocked 8 at a time (8 accumulators + the
// weight vector leave 23 of the 32 zmm registers free) so every weight line
// loaded serves eight madds: the weight matrix streams from cache/memory
// once per 8 samples instead of once per sample — the amortization the
// serving coalescer banks on. Each sample's per-lane op chain (madd
// accumulation in ascending p, then t = rs·xs, y = cvt(acc)·t + b) matches
// the scalar reference, so outputs are bit-identical for every batch size.
//
// Two ISA variants of the same loop: the baseline accumulates with
// vpaddd(vpmaddwd(w, x)); the AVX512-VNNI variant fuses that pair into one
// vpdpwssd uop — the identical int32 result at half the port-0/5 pressure,
// which is what bounds this loop once the tile is cache-resident. The TU's
// baseline ISA stays avx512f/bw; only the VNNI function carries the extra
// target attribute, and avx512_quant_affine picks it via CPUID at runtime.
#define IMAP_QUANT_TILE_SWEEP(ACCUM)                                          \
  const std::size_t stride = 2 * in_pairs;                                    \
  const std::size_t full = out / kQuantTile;                                  \
  for (std::size_t tile = 0; tile < full; ++tile) {                           \
    const std::size_t r = tile * kQuantTile;                                  \
    const std::int16_t* wt = wq_packed + tile * in_pairs * 2 * kQuantTile;    \
    const __m512 rsv = _mm512_loadu_ps(row_scale + r);                        \
    const __m512 bv = _mm512_loadu_ps(bias + r);                              \
    std::size_t n = 0;                                                        \
    for (; n + 8 <= batch; n += 8) {                                          \
      const std::int16_t* x0 = xq + n * stride;                               \
      const std::int16_t* x1 = x0 + stride;                                   \
      const std::int16_t* x2 = x1 + stride;                                   \
      const std::int16_t* x3 = x2 + stride;                                   \
      const std::int16_t* x4 = x3 + stride;                                   \
      const std::int16_t* x5 = x4 + stride;                                   \
      const std::int16_t* x6 = x5 + stride;                                   \
      const std::int16_t* x7 = x6 + stride;                                   \
      __m512i a0 = _mm512_setzero_si512();                                    \
      __m512i a1 = _mm512_setzero_si512();                                    \
      __m512i a2 = _mm512_setzero_si512();                                    \
      __m512i a3 = _mm512_setzero_si512();                                    \
      __m512i a4 = _mm512_setzero_si512();                                    \
      __m512i a5 = _mm512_setzero_si512();                                    \
      __m512i a6 = _mm512_setzero_si512();                                    \
      __m512i a7 = _mm512_setzero_si512();                                    \
      for (std::size_t p = 0; p < in_pairs; ++p) {                            \
        const __m512i wv = _mm512_loadu_si512(                                \
            reinterpret_cast<const void*>(wt + p * 2 * kQuantTile));          \
        a0 = ACCUM(a0, wv, bcast_pair(x0 + 2 * p));                           \
        a1 = ACCUM(a1, wv, bcast_pair(x1 + 2 * p));                           \
        a2 = ACCUM(a2, wv, bcast_pair(x2 + 2 * p));                           \
        a3 = ACCUM(a3, wv, bcast_pair(x3 + 2 * p));                           \
        a4 = ACCUM(a4, wv, bcast_pair(x4 + 2 * p));                           \
        a5 = ACCUM(a5, wv, bcast_pair(x5 + 2 * p));                           \
        a6 = ACCUM(a6, wv, bcast_pair(x6 + 2 * p));                           \
        a7 = ACCUM(a7, wv, bcast_pair(x7 + 2 * p));                           \
      }                                                                       \
      const __m512i acc[8] = {a0, a1, a2, a3, a4, a5, a6, a7};                \
      for (std::size_t j = 0; j < 8; ++j) {                                   \
        const __m512 t = _mm512_mul_ps(rsv, _mm512_set1_ps(xscale[n + j]));   \
        const __m512 yv =                                                     \
            _mm512_add_ps(_mm512_mul_ps(_mm512_cvtepi32_ps(acc[j]), t), bv);  \
        _mm512_storeu_ps(y + (n + j) * out + r, yv);                          \
      }                                                                       \
    }                                                                         \
    for (; n < batch; ++n) {                                                  \
      const std::int16_t* xr = xq + n * stride;                               \
      __m512i acc = _mm512_setzero_si512();                                   \
      for (std::size_t p = 0; p < in_pairs; ++p) {                            \
        const __m512i wv = _mm512_loadu_si512(                                \
            reinterpret_cast<const void*>(wt + p * 2 * kQuantTile));          \
        acc = ACCUM(acc, wv, bcast_pair(xr + 2 * p));                         \
      }                                                                       \
      const __m512 t = _mm512_mul_ps(rsv, _mm512_set1_ps(xscale[n]));         \
      const __m512 yv =                                                       \
          _mm512_add_ps(_mm512_mul_ps(_mm512_cvtepi32_ps(acc), t), bv);       \
      _mm512_storeu_ps(y + n * out + r, yv);                                  \
    }                                                                         \
  }

#define IMAP_ACCUM_MADD(acc, w, x) \
  _mm512_add_epi32(acc, _mm512_madd_epi16(w, x))
#define IMAP_ACCUM_VNNI(acc, w, x) _mm512_dpwssd_epi32(acc, w, x)

void quant_tiles(const std::int16_t* wq_packed, const float* row_scale,
                 const float* bias, std::size_t out, std::size_t in_pairs,
                 const std::int16_t* xq, const float* xscale,
                 std::size_t batch, float* y) {
  IMAP_QUANT_TILE_SWEEP(IMAP_ACCUM_MADD)
}

__attribute__((target("avx512f,avx512bw,avx512vnni"))) void quant_tiles_vnni(
    const std::int16_t* wq_packed, const float* row_scale, const float* bias,
    std::size_t out, std::size_t in_pairs, const std::int16_t* xq,
    const float* xscale, std::size_t batch, float* y) {
  IMAP_QUANT_TILE_SWEEP(IMAP_ACCUM_VNNI)
}

#undef IMAP_ACCUM_VNNI
#undef IMAP_ACCUM_MADD
#undef IMAP_QUANT_TILE_SWEEP

}  // namespace

// 16 outputs per _mm512_madd_epi16 (or vpdpwssd); same exact int32
// accumulation and three-op float dequant as the scalar reference (see
// kernel_avx2.cpp for the layout rationale, quant_tiles above for the
// tiling and ISA-variant rationale).
void avx512_quant_affine(const std::int16_t* wq_packed, const float* row_scale,
                         const float* bias, std::size_t out,
                         std::size_t in_pairs, const std::int16_t* xq,
                         const float* xscale, std::size_t batch, float* y) {
  static const bool use_vnni = __builtin_cpu_supports("avx512vnni");
  if (use_vnni)
    quant_tiles_vnni(wq_packed, row_scale, bias, out, in_pairs, xq, xscale,
                     batch, y);
  else
    quant_tiles(wq_packed, row_scale, bias, out, in_pairs, xq, xscale, batch,
                y);
  // Remainder rows: column-pair-major of width w after the tiles.
  const std::size_t full = out / kQuantTile;
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

// Fused tanh + requantize, 16 floats per vector (see kernel_avx2.cpp for the
// bit-identity argument; _mm512_cvtps_epi32 rounds to nearest-even like the
// scalar lrintf, and _mm512_cvtsepi32_epi16 packs the pre-clamped codes).
void avx512_quant_act(float* h, std::size_t batch, std::size_t width,
                      std::size_t out_pairs, std::int16_t* qx, float* qscale) {
  const __m512 lo5 = _mm512_set1_ps(-5.0f);
  const __m512 hi5 = _mm512_set1_ps(5.0f);
  const __m512 c135135 = _mm512_set1_ps(135135.0f);
  const __m512 c17325 = _mm512_set1_ps(17325.0f);
  const __m512 c378 = _mm512_set1_ps(378.0f);
  const __m512 c62370 = _mm512_set1_ps(62370.0f);
  const __m512 c3150 = _mm512_set1_ps(3150.0f);
  const __m512 c28 = _mm512_set1_ps(28.0f);
  const __m512i absmask = _mm512_set1_epi32(0x7fffffff);
  const std::size_t stride = 2 * out_pairs;
  for (std::size_t n = 0; n < batch; ++n) {
    float* hn = h + n * width;
    std::int16_t* qn = qx + n * stride;
    __m512i amaxv = _mm512_setzero_si512();
    std::size_t c = 0;
    for (; c + 16 <= width; c += 16) {
      __m512 x = _mm512_loadu_ps(hn + c);
      x = _mm512_min_ps(_mm512_max_ps(x, lo5), hi5);
      const __m512 x2 = _mm512_mul_ps(x, x);
      const __m512 p = _mm512_mul_ps(
          x, _mm512_add_ps(
                 c135135,
                 _mm512_mul_ps(
                     x2, _mm512_add_ps(
                             c17325, _mm512_mul_ps(
                                         x2, _mm512_add_ps(c378, x2))))));
      const __m512 q = _mm512_add_ps(
          c135135,
          _mm512_mul_ps(
              x2, _mm512_add_ps(
                      c62370,
                      _mm512_mul_ps(
                          x2, _mm512_add_ps(c3150,
                                            _mm512_mul_ps(c28, x2))))));
      const __m512 t = _mm512_div_ps(p, q);
      _mm512_storeu_ps(hn + c, t);
      amaxv = _mm512_max_epu32(
          amaxv, _mm512_and_si512(_mm512_castps_si512(t), absmask));
    }
    std::uint32_t m = _mm512_reduce_max_epu32(amaxv);
    for (; c < width; ++c) {
      hn[c] = quant_fast_tanh(hn[c]);
      m = std::max(m, std::bit_cast<std::uint32_t>(hn[c]) & 0x7fffffffu);
    }
    if (m != 0) {
      const float amax = std::bit_cast<float>(m);
      const float inv = 127.0f / amax;
      const __m512 invv = _mm512_set1_ps(inv);
      const __m512i cpos = _mm512_set1_epi32(127);
      const __m512i cneg = _mm512_set1_epi32(-127);
      c = 0;
      for (; c + 16 <= width; c += 16) {
        __m512i i = _mm512_cvtps_epi32(_mm512_mul_ps(_mm512_loadu_ps(hn + c),
                                                     invv));
        i = _mm512_max_epi32(_mm512_min_epi32(i, cpos), cneg);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(qn + c),
                            _mm512_cvtsepi32_epi16(i));
      }
      for (; c < width; ++c) qn[c] = quant_code(hn[c] * inv);
      qscale[n] = amax / 127.0f;
    } else {
      for (c = 0; c < width; ++c) qn[c] = 0;
      qscale[n] = 0.0f;
    }
    for (c = width; c < stride; ++c) qn[c] = 0;
  }
}

namespace {

/// knn_scan lanes: one zmm holds one column of an eight-row block.
struct Avx512Rows {
  using Vec = __m512d;
  static Vec zero() { return _mm512_setzero_pd(); }
  static Vec load(const double* p) { return _mm512_loadu_pd(p); }
  static Vec acc_sq(Vec acc, Vec x, double q) {
    const Vec d = _mm512_sub_pd(x, _mm512_set1_pd(q));
    return _mm512_add_pd(acc, _mm512_mul_pd(d, d));
  }
  static unsigned lt_mask(Vec a, double t) {
    return _mm512_cmp_pd_mask(a, _mm512_set1_pd(t), _CMP_LT_OQ);
  }
  static void store(double* p, Vec a) { _mm512_storeu_pd(p, a); }
};

/// tanh_rows, tanh_grad and adam_step lanes: eight doubles per zmm. AVX-512F has no fp64 logic ops
/// (those are AVX-512DQ), so the sign bits go through the integer forms.
struct Avx512F64 {
  using Vec = __m512d;
  static constexpr std::size_t kWidth = 8;
  static Vec load(const double* p) { return _mm512_loadu_pd(p); }
  static void store(double* p, Vec v) { _mm512_storeu_pd(p, v); }
  static Vec set1(double v) { return _mm512_set1_pd(v); }
  static Vec add(Vec a, Vec b) { return _mm512_add_pd(a, b); }
  static Vec sub(Vec a, Vec b) { return _mm512_sub_pd(a, b); }
  static Vec mul(Vec a, Vec b) { return _mm512_mul_pd(a, b); }
  static Vec div(Vec a, Vec b) { return _mm512_div_pd(a, b); }
  static Vec sqrt(Vec a) { return _mm512_sqrt_pd(a); }
  static Vec min(Vec a, Vec b) { return _mm512_min_pd(a, b); }
  static __mmask8 lt(Vec a, Vec b) {
    return _mm512_cmp_pd_mask(a, b, _CMP_LT_OQ);
  }
  static bool all(__mmask8 m) { return m == 0xff; }
  static Vec select(__mmask8 m, Vec yes, Vec no) {
    return _mm512_mask_blend_pd(m, no, yes);
  }
  static Vec and_bits(Vec a, Vec b) {
    return _mm512_castsi512_pd(
        _mm512_and_si512(_mm512_castpd_si512(a), _mm512_castpd_si512(b)));
  }
  static Vec or_bits(Vec a, Vec b) {
    return _mm512_castsi512_pd(
        _mm512_or_si512(_mm512_castpd_si512(a), _mm512_castpd_si512(b)));
  }
  static Vec xor_bits(Vec a, Vec b) {
    return _mm512_castsi512_pd(
        _mm512_xor_si512(_mm512_castpd_si512(a), _mm512_castpd_si512(b)));
  }
  static Vec pow2(Vec kd) {
    const __m512i n = _mm512_sub_epi64(
        _mm512_castpd_si512(kd),
        _mm512_castpd_si512(_mm512_set1_pd(kTanhRound)));
    const __m512i bias =
        _mm512_set1_epi64(static_cast<long long>(kTanhExpBias));
    return _mm512_castsi512_pd(
        _mm512_slli_epi64(_mm512_add_epi64(n, bias), 52));
  }
};

}  // namespace

void avx512_tanh_rows(const double* x, std::size_t n, double* y) {
  tanh_rows_vec<Avx512F64>(x, n, y);
}

void avx512_tanh_grad(const double* y, std::size_t n, double* g) {
  tanh_grad_vec<Avx512F64>(y, n, g);
}

void avx512_adam_step(double* p, const double* g, double* m, double* v,
                      std::size_t n, const AdamCoeffs& c) {
  adam_step_vec<Avx512F64>(p, g, m, v, n, c);
}

void avx512_knn_scan(const double* blocks, std::size_t rows, std::size_t dim,
                     std::size_t axis, std::size_t k, const double* queries,
                     std::size_t nq, std::size_t stride, double* kth) {
  knn_scan_window<Avx512Rows, 2, 8>(blocks, rows, dim, axis, k, queries, nq,
                                    stride, kth);
}

}  // namespace imap::nn::kernel::detail

#endif  // IMAP_KERNEL_AVX512
