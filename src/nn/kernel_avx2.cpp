// AVX2 backend. SIMD lanes are only ever mapped across *independent* output
// elements (output neurons, input dims, weight-matrix entries); each lane
// executes the exact scalar chain — separate mul then add, ascending
// contraction index — so these kernels are bit-identical to the scalar
// backend. This TU is compiled with -mavx2 -mno-fma -ffp-contract=off: with
// no FMA instructions available the compiler cannot contract mul+add and
// change rounding.

#ifdef IMAP_KERNEL_AVX2

#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <vector>

#include "nn/kernel_impl.h"

namespace imap::nn::kernel::detail {

namespace {

/// Column-major weight view for the lanes-across-outputs loops: the caller's
/// cached transpose when provided (Mlp::Workspace::wt — free), else a
/// thread-cached local copy (O(out·in) per call against O(batch·out·in)
/// compute; the reason uncached dispatch gates on batch size).
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

// Y[n] = W·X[n] + b for one row, lanes across output neurons. Four adjacent
// outputs share one broadcast of x[c] and advance their accumulators in
// lock-step; per lane the reduction is b[r] then += w[r][c]·x[c] for
// ascending c — the affine() chain exactly.
inline void affine_row(const double* w, const double* wtp, const double* b,
                       std::size_t out, std::size_t in, const double* xn,
                       double* yn) {
  std::size_t r = 0;
  for (; r + 16 <= out; r += 16) {
    __m256d a0, a1, a2, a3;
    if (b) {
      a0 = _mm256_loadu_pd(b + r);
      a1 = _mm256_loadu_pd(b + r + 4);
      a2 = _mm256_loadu_pd(b + r + 8);
      a3 = _mm256_loadu_pd(b + r + 12);
    } else {
      a0 = a1 = a2 = a3 = _mm256_setzero_pd();
    }
    for (std::size_t c = 0; c < in; ++c) {
      const __m256d xc = _mm256_set1_pd(xn[c]);
      const double* col = wtp + c * out + r;
      a0 = _mm256_add_pd(a0, _mm256_mul_pd(_mm256_loadu_pd(col), xc));
      a1 = _mm256_add_pd(a1, _mm256_mul_pd(_mm256_loadu_pd(col + 4), xc));
      a2 = _mm256_add_pd(a2, _mm256_mul_pd(_mm256_loadu_pd(col + 8), xc));
      a3 = _mm256_add_pd(a3, _mm256_mul_pd(_mm256_loadu_pd(col + 12), xc));
    }
    _mm256_storeu_pd(yn + r, a0);
    _mm256_storeu_pd(yn + r + 4, a1);
    _mm256_storeu_pd(yn + r + 8, a2);
    _mm256_storeu_pd(yn + r + 12, a3);
  }
  for (; r + 4 <= out; r += 4) {
    __m256d a = b ? _mm256_loadu_pd(b + r) : _mm256_setzero_pd();
    for (std::size_t c = 0; c < in; ++c) {
      const __m256d xc = _mm256_set1_pd(xn[c]);
      a = _mm256_add_pd(a,
                        _mm256_mul_pd(_mm256_loadu_pd(wtp + c * out + r), xc));
    }
    _mm256_storeu_pd(yn + r, a);
  }
  for (; r < out; ++r) {
    const double* row = w + r * in;
    double s = b ? b[r] : 0.0;
    for (std::size_t c = 0; c < in; ++c) s += row[c] * xn[c];
    yn[r] = s;
  }
}

// Four rows per pass over Wᵀ: each weight slice is loaded once for four
// rows, and the rows' accumulators are independent chains, so consecutive
// adds do not wait on each other. Blocks of 8 outputs keep the eight
// accumulators, two weight vectors and a broadcast within the 16 ymm
// registers. Per lane the chain is still b[r], then += w[r][c]·x[n][c] for
// ascending c.
inline void affine_rows4(const double* w, const double* wtp, const double* b,
                         std::size_t out, std::size_t in, const double* x,
                         double* y) {
  const double* x0 = x;
  const double* x1 = x0 + in;
  const double* x2 = x1 + in;
  const double* x3 = x2 + in;
  double* y0 = y;
  double* y1 = y0 + out;
  double* y2 = y1 + out;
  double* y3 = y2 + out;
  std::size_t r = 0;
  for (; r + 8 <= out; r += 8) {
    const __m256d b0 = b ? _mm256_loadu_pd(b + r) : _mm256_setzero_pd();
    const __m256d b1 = b ? _mm256_loadu_pd(b + r + 4) : _mm256_setzero_pd();
    __m256d a00 = b0, a01 = b1, a10 = b0, a11 = b1;
    __m256d a20 = b0, a21 = b1, a30 = b0, a31 = b1;
    for (std::size_t c = 0; c < in; ++c) {
      const double* col = wtp + c * out + r;
      const __m256d w0 = _mm256_loadu_pd(col);
      const __m256d w1 = _mm256_loadu_pd(col + 4);
      __m256d xc = _mm256_set1_pd(x0[c]);
      a00 = _mm256_add_pd(a00, _mm256_mul_pd(w0, xc));
      a01 = _mm256_add_pd(a01, _mm256_mul_pd(w1, xc));
      xc = _mm256_set1_pd(x1[c]);
      a10 = _mm256_add_pd(a10, _mm256_mul_pd(w0, xc));
      a11 = _mm256_add_pd(a11, _mm256_mul_pd(w1, xc));
      xc = _mm256_set1_pd(x2[c]);
      a20 = _mm256_add_pd(a20, _mm256_mul_pd(w0, xc));
      a21 = _mm256_add_pd(a21, _mm256_mul_pd(w1, xc));
      xc = _mm256_set1_pd(x3[c]);
      a30 = _mm256_add_pd(a30, _mm256_mul_pd(w0, xc));
      a31 = _mm256_add_pd(a31, _mm256_mul_pd(w1, xc));
    }
    _mm256_storeu_pd(y0 + r, a00);
    _mm256_storeu_pd(y0 + r + 4, a01);
    _mm256_storeu_pd(y1 + r, a10);
    _mm256_storeu_pd(y1 + r + 4, a11);
    _mm256_storeu_pd(y2 + r, a20);
    _mm256_storeu_pd(y2 + r + 4, a21);
    _mm256_storeu_pd(y3 + r, a30);
    _mm256_storeu_pd(y3 + r + 4, a31);
  }
  for (; r + 4 <= out; r += 4) {
    const __m256d bv = b ? _mm256_loadu_pd(b + r) : _mm256_setzero_pd();
    __m256d a0 = bv, a1 = bv, a2 = bv, a3 = bv;
    for (std::size_t c = 0; c < in; ++c) {
      const __m256d wv = _mm256_loadu_pd(wtp + c * out + r);
      a0 = _mm256_add_pd(a0, _mm256_mul_pd(wv, _mm256_set1_pd(x0[c])));
      a1 = _mm256_add_pd(a1, _mm256_mul_pd(wv, _mm256_set1_pd(x1[c])));
      a2 = _mm256_add_pd(a2, _mm256_mul_pd(wv, _mm256_set1_pd(x2[c])));
      a3 = _mm256_add_pd(a3, _mm256_mul_pd(wv, _mm256_set1_pd(x3[c])));
    }
    _mm256_storeu_pd(y0 + r, a0);
    _mm256_storeu_pd(y1 + r, a1);
    _mm256_storeu_pd(y2 + r, a2);
    _mm256_storeu_pd(y3 + r, a3);
  }
  for (; r < out; ++r) {
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

// Narrow heads (out < 4, e.g. the value head's single output): lanes run
// across four rows instead of across outputs. `xt` receives the block of x
// transposed to in×4, so one load reads column c of all four rows; per
// lane the chain is b[r], then += w[r][c]·x[n][c] for ascending c.
inline void affine_rows4_narrow(const double* w, const double* b,
                                std::size_t out, std::size_t in,
                                const double* x, double* y, double* xt) {
  for (std::size_t l = 0; l < 4; ++l)
    for (std::size_t c = 0; c < in; ++c) xt[c * 4 + l] = x[l * in + c];
  alignas(32) double lanes[4];
  for (std::size_t r = 0; r < out; ++r) {
    const double* row = w + r * in;
    __m256d a = b ? _mm256_set1_pd(b[r]) : _mm256_setzero_pd();
    for (std::size_t c = 0; c < in; ++c)
      a = _mm256_add_pd(a, _mm256_mul_pd(_mm256_set1_pd(row[c]),
                                         _mm256_loadu_pd(xt + c * 4)));
    _mm256_store_pd(lanes, a);
    for (std::size_t l = 0; l < 4; ++l) y[l * out + r] = lanes[l];
  }
}

// GIN[n] = Wᵀ·G[n] for one row, lanes across input dims. For a block of
// input columns the r-loop broadcasts g[n][r] and pulls a contiguous slice
// of weight row r; per lane each gin element starts at 0 and accumulates in
// ascending r order — the matvec_t_acc chain on a zeroed output.
inline void matvec_t_row(const double* w, std::size_t out, std::size_t in,
                         const double* gn, double* on) {
  std::size_t c = 0;
  for (; c + 16 <= in; c += 16) {
    __m256d a0 = _mm256_setzero_pd(), a1 = _mm256_setzero_pd(),
            a2 = _mm256_setzero_pd(), a3 = _mm256_setzero_pd();
    for (std::size_t r = 0; r < out; ++r) {
      const __m256d gr = _mm256_set1_pd(gn[r]);
      const double* row = w + r * in + c;
      a0 = _mm256_add_pd(a0, _mm256_mul_pd(_mm256_loadu_pd(row), gr));
      a1 = _mm256_add_pd(a1, _mm256_mul_pd(_mm256_loadu_pd(row + 4), gr));
      a2 = _mm256_add_pd(a2, _mm256_mul_pd(_mm256_loadu_pd(row + 8), gr));
      a3 = _mm256_add_pd(a3, _mm256_mul_pd(_mm256_loadu_pd(row + 12), gr));
    }
    _mm256_storeu_pd(on + c, a0);
    _mm256_storeu_pd(on + c + 4, a1);
    _mm256_storeu_pd(on + c + 8, a2);
    _mm256_storeu_pd(on + c + 12, a3);
  }
  for (; c + 4 <= in; c += 4) {
    __m256d a = _mm256_setzero_pd();
    for (std::size_t r = 0; r < out; ++r) {
      const __m256d gr = _mm256_set1_pd(gn[r]);
      a = _mm256_add_pd(a, _mm256_mul_pd(_mm256_loadu_pd(w + r * in + c), gr));
    }
    _mm256_storeu_pd(on + c, a);
  }
  for (; c < in; ++c) {
    double s = 0.0;
    for (std::size_t r = 0; r < out; ++r) s += w[r * in + c] * gn[r];
    on[c] = s;
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
  for (; c + 8 <= in; c += 8) {
    __m256d a00 = _mm256_setzero_pd(), a01 = _mm256_setzero_pd();
    __m256d a10 = _mm256_setzero_pd(), a11 = _mm256_setzero_pd();
    __m256d a20 = _mm256_setzero_pd(), a21 = _mm256_setzero_pd();
    __m256d a30 = _mm256_setzero_pd(), a31 = _mm256_setzero_pd();
    for (std::size_t r = 0; r < out; ++r) {
      const double* row = w + r * in + c;
      const __m256d w0 = _mm256_loadu_pd(row);
      const __m256d w1 = _mm256_loadu_pd(row + 4);
      __m256d gr = _mm256_set1_pd(g0[r]);
      a00 = _mm256_add_pd(a00, _mm256_mul_pd(w0, gr));
      a01 = _mm256_add_pd(a01, _mm256_mul_pd(w1, gr));
      gr = _mm256_set1_pd(g1[r]);
      a10 = _mm256_add_pd(a10, _mm256_mul_pd(w0, gr));
      a11 = _mm256_add_pd(a11, _mm256_mul_pd(w1, gr));
      gr = _mm256_set1_pd(g2[r]);
      a20 = _mm256_add_pd(a20, _mm256_mul_pd(w0, gr));
      a21 = _mm256_add_pd(a21, _mm256_mul_pd(w1, gr));
      gr = _mm256_set1_pd(g3[r]);
      a30 = _mm256_add_pd(a30, _mm256_mul_pd(w0, gr));
      a31 = _mm256_add_pd(a31, _mm256_mul_pd(w1, gr));
    }
    _mm256_storeu_pd(o0 + c, a00);
    _mm256_storeu_pd(o0 + c + 4, a01);
    _mm256_storeu_pd(o1 + c, a10);
    _mm256_storeu_pd(o1 + c + 4, a11);
    _mm256_storeu_pd(o2 + c, a20);
    _mm256_storeu_pd(o2 + c + 4, a21);
    _mm256_storeu_pd(o3 + c, a30);
    _mm256_storeu_pd(o3 + c + 4, a31);
  }
  for (; c + 4 <= in; c += 4) {
    __m256d a0 = _mm256_setzero_pd(), a1 = _mm256_setzero_pd();
    __m256d a2 = _mm256_setzero_pd(), a3 = _mm256_setzero_pd();
    for (std::size_t r = 0; r < out; ++r) {
      const __m256d wv = _mm256_loadu_pd(w + r * in + c);
      a0 = _mm256_add_pd(a0, _mm256_mul_pd(wv, _mm256_set1_pd(g0[r])));
      a1 = _mm256_add_pd(a1, _mm256_mul_pd(wv, _mm256_set1_pd(g1[r])));
      a2 = _mm256_add_pd(a2, _mm256_mul_pd(wv, _mm256_set1_pd(g2[r])));
      a3 = _mm256_add_pd(a3, _mm256_mul_pd(wv, _mm256_set1_pd(g3[r])));
    }
    _mm256_storeu_pd(o0 + c, a0);
    _mm256_storeu_pd(o1 + c, a1);
    _mm256_storeu_pd(o2 + c, a2);
    _mm256_storeu_pd(o3 + c, a3);
  }
  for (; c < in; ++c) {
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    for (std::size_t r = 0; r < out; ++r) {
      const double wc = w[r * in + c];
      s0 += wc * g0[r];
      s1 += wc * g1[r];
      s2 += wc * g2[r];
      s3 += wc * g3[r];
    }
    o0[c] = s0;
    o1[c] = s1;
    o2[c] = s2;
    o3[c] = s3;
  }
}

// dW row r and db[r] over the whole batch, lanes across weight columns.
// Each dw entry is held in a register across the whole batch and
// accumulates g[n][r]·x[n][c] in ascending n — the per-sample outer_acc
// chain (whose scale of 1.0 is bitwise exact) — then is stored once.
inline void outer_acc_row(const double* g, const double* x, std::size_t batch,
                          std::size_t out, std::size_t in, std::size_t r,
                          double* dw, double* db) {
  double* dwr = dw + r * in;
  std::size_t c = 0;
  for (; c + 16 <= in; c += 16) {
    __m256d a0 = _mm256_loadu_pd(dwr + c);
    __m256d a1 = _mm256_loadu_pd(dwr + c + 4);
    __m256d a2 = _mm256_loadu_pd(dwr + c + 8);
    __m256d a3 = _mm256_loadu_pd(dwr + c + 12);
    for (std::size_t n = 0; n < batch; ++n) {
      const __m256d gr = _mm256_set1_pd(g[n * out + r]);
      const double* xn = x + n * in + c;
      a0 = _mm256_add_pd(a0, _mm256_mul_pd(_mm256_loadu_pd(xn), gr));
      a1 = _mm256_add_pd(a1, _mm256_mul_pd(_mm256_loadu_pd(xn + 4), gr));
      a2 = _mm256_add_pd(a2, _mm256_mul_pd(_mm256_loadu_pd(xn + 8), gr));
      a3 = _mm256_add_pd(a3, _mm256_mul_pd(_mm256_loadu_pd(xn + 12), gr));
    }
    _mm256_storeu_pd(dwr + c, a0);
    _mm256_storeu_pd(dwr + c + 4, a1);
    _mm256_storeu_pd(dwr + c + 8, a2);
    _mm256_storeu_pd(dwr + c + 12, a3);
  }
  for (; c + 4 <= in; c += 4) {
    __m256d a = _mm256_loadu_pd(dwr + c);
    for (std::size_t n = 0; n < batch; ++n) {
      const __m256d gr = _mm256_set1_pd(g[n * out + r]);
      a = _mm256_add_pd(a, _mm256_mul_pd(_mm256_loadu_pd(x + n * in + c), gr));
    }
    _mm256_storeu_pd(dwr + c, a);
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
  for (; c + 8 <= in; c += 8) {
    __m256d a00 = _mm256_loadu_pd(d0 + c), a01 = _mm256_loadu_pd(d0 + c + 4);
    __m256d a10 = _mm256_loadu_pd(d1 + c), a11 = _mm256_loadu_pd(d1 + c + 4);
    __m256d a20 = _mm256_loadu_pd(d2 + c), a21 = _mm256_loadu_pd(d2 + c + 4);
    __m256d a30 = _mm256_loadu_pd(d3 + c), a31 = _mm256_loadu_pd(d3 + c + 4);
    for (std::size_t n = 0; n < batch; ++n) {
      const double* xn = x + n * in + c;
      const double* gn = g + n * out + r;
      const __m256d x0 = _mm256_loadu_pd(xn);
      const __m256d x1 = _mm256_loadu_pd(xn + 4);
      __m256d gr = _mm256_set1_pd(gn[0]);
      a00 = _mm256_add_pd(a00, _mm256_mul_pd(x0, gr));
      a01 = _mm256_add_pd(a01, _mm256_mul_pd(x1, gr));
      gr = _mm256_set1_pd(gn[1]);
      a10 = _mm256_add_pd(a10, _mm256_mul_pd(x0, gr));
      a11 = _mm256_add_pd(a11, _mm256_mul_pd(x1, gr));
      gr = _mm256_set1_pd(gn[2]);
      a20 = _mm256_add_pd(a20, _mm256_mul_pd(x0, gr));
      a21 = _mm256_add_pd(a21, _mm256_mul_pd(x1, gr));
      gr = _mm256_set1_pd(gn[3]);
      a30 = _mm256_add_pd(a30, _mm256_mul_pd(x0, gr));
      a31 = _mm256_add_pd(a31, _mm256_mul_pd(x1, gr));
    }
    _mm256_storeu_pd(d0 + c, a00);
    _mm256_storeu_pd(d0 + c + 4, a01);
    _mm256_storeu_pd(d1 + c, a10);
    _mm256_storeu_pd(d1 + c + 4, a11);
    _mm256_storeu_pd(d2 + c, a20);
    _mm256_storeu_pd(d2 + c + 4, a21);
    _mm256_storeu_pd(d3 + c, a30);
    _mm256_storeu_pd(d3 + c + 4, a31);
  }
  for (; c + 4 <= in; c += 4) {
    __m256d a0 = _mm256_loadu_pd(d0 + c), a1 = _mm256_loadu_pd(d1 + c);
    __m256d a2 = _mm256_loadu_pd(d2 + c), a3 = _mm256_loadu_pd(d3 + c);
    for (std::size_t n = 0; n < batch; ++n) {
      const double* gn = g + n * out + r;
      const __m256d xv = _mm256_loadu_pd(x + n * in + c);
      a0 = _mm256_add_pd(a0, _mm256_mul_pd(xv, _mm256_set1_pd(gn[0])));
      a1 = _mm256_add_pd(a1, _mm256_mul_pd(xv, _mm256_set1_pd(gn[1])));
      a2 = _mm256_add_pd(a2, _mm256_mul_pd(xv, _mm256_set1_pd(gn[2])));
      a3 = _mm256_add_pd(a3, _mm256_mul_pd(xv, _mm256_set1_pd(gn[3])));
    }
    _mm256_storeu_pd(d0 + c, a0);
    _mm256_storeu_pd(d1 + c, a1);
    _mm256_storeu_pd(d2 + c, a2);
    _mm256_storeu_pd(d3 + c, a3);
  }
  for (; c < in; ++c) {
    double s0 = d0[c], s1 = d1[c], s2 = d2[c], s3 = d3[c];
    for (std::size_t n = 0; n < batch; ++n) {
      const double* gn = g + n * out + r;
      const double xc = x[n * in + c];
      s0 += gn[0] * xc;
      s1 += gn[1] * xc;
      s2 += gn[2] * xc;
      s3 += gn[3] * xc;
    }
    d0[c] = s0;
    d1[c] = s1;
    d2[c] = s2;
    d3[c] = s3;
  }
  __m256d sb = _mm256_loadu_pd(db + r);
  for (std::size_t n = 0; n < batch; ++n)
    sb = _mm256_add_pd(sb, _mm256_loadu_pd(g + n * out + r));
  _mm256_storeu_pd(db + r, sb);
}

}  // namespace

// Each kernel runs blocks of four rows (output rows for outer_acc), then
// the single-row body for the rest; affine with out < 4 puts lanes across
// rows instead. Every output element keeps its scalar chain, so all paths
// are bit-identical to the scalar backend.

void avx2_batch_affine(const double* w, const double* wt, const double* b,
                       std::size_t out, std::size_t in, const double* x,
                       std::size_t batch, double* y) {
  std::size_t n = 0;
  if (out < 4 && batch >= 4) {
    thread_local std::vector<double> xt;
    if (xt.size() < in * 4) xt.resize(in * 4);
    for (; n + 4 <= batch; n += 4)
      affine_rows4_narrow(w, b, out, in, x + n * in, y + n * out, xt.data());
  }
  if (n == batch) return;
  const double* wtp = transposed(w, wt, out, in);
  if (out >= 4)
    for (; n + 4 <= batch; n += 4)
      affine_rows4(w, wtp, b, out, in, x + n * in, y + n * out);
  for (; n < batch; ++n)
    affine_row(w, wtp, b, out, in, x + n * in, y + n * out);
}

void avx2_batch_matvec_t(const double* w, std::size_t out, std::size_t in,
                         const double* g, std::size_t batch, double* gin) {
  std::size_t n = 0;
  for (; n + 4 <= batch; n += 4)
    matvec_t_rows4(w, out, in, g + n * out, gin + n * in);
  for (; n < batch; ++n) matvec_t_row(w, out, in, g + n * out, gin + n * in);
}

void avx2_batch_outer_acc(const double* g, const double* x, std::size_t batch,
                          std::size_t out, std::size_t in, double* dw,
                          double* db) {
  std::size_t r = 0;
  for (; r + 4 <= out; r += 4) outer_acc_rows4(g, x, batch, out, in, r, dw, db);
  for (; r < out; ++r) outer_acc_row(g, x, batch, out, in, r, dw, db);
}

// int8 serving kernel, lanes across output neurons. One _mm256_madd_epi16
// consumes 8 outputs × 1 column pair: the packed weight layout puts the
// (c, c+1) int16 pair of 8 consecutive rows in one 256-bit load, the
// activation pair broadcasts as an int32, and madd produces the exact
// w0·x0 + w1·x1 int32 per output. Integer accumulation is associative, so
// the result equals scalar_quant_affine bit for bit; the float dequant runs
// the same three-op chain (t = rs·xs; y = acc·t + bias) per lane.
void avx2_quant_affine(const std::int16_t* wq_packed, const float* row_scale,
                       const float* bias, std::size_t out,
                       std::size_t in_pairs, const std::int16_t* xq,
                       const float* xscale, std::size_t batch, float* y) {
  // Weight-stationary over the tile-major layout (kernel_backend.h): a full
  // kQuantTile(16)-row tile is contiguous, consumed here as two 256-bit
  // halves per column pair (lanes 0-7 and 8-15 of the tile's cache line).
  // Contiguous streaming keeps the tile cache-resident across the batch
  // sweep, and samples are blocked 4 at a time so each weight load serves
  // four madds — the matrix streams once per 4 samples rather than once per
  // sample. The activation pair broadcasts as one 32-bit load
  // (little-endian memory already holds lo | hi<<16 at xr + 2p). Each
  // sample's per-lane arithmetic order is unchanged — bit-identical across
  // batch sizes and backends.
  const auto bcast_pair = [](const std::int16_t* p2) {
    std::int32_t word;
    std::memcpy(&word, p2, sizeof word);
    return _mm256_set1_epi32(word);
  };
  const std::size_t stride = 2 * in_pairs;
  const std::size_t full = out / kQuantTile;
  for (std::size_t tile = 0; tile < full; ++tile) {
    const std::int16_t* wt = wq_packed + tile * in_pairs * 2 * kQuantTile;
    for (std::size_t half = 0; half < 2; ++half) {
      const std::size_t r = tile * kQuantTile + half * 8;
      const std::int16_t* wh = wt + half * 16;
      const __m256 rsv = _mm256_loadu_ps(row_scale + r);
      const __m256 bv = _mm256_loadu_ps(bias + r);
      std::size_t n = 0;
      for (; n + 4 <= batch; n += 4) {
        const std::int16_t* x0 = xq + n * stride;
        const std::int16_t* x1 = x0 + stride;
        const std::int16_t* x2 = x1 + stride;
        const std::int16_t* x3 = x2 + stride;
        __m256i a0 = _mm256_setzero_si256();
        __m256i a1 = _mm256_setzero_si256();
        __m256i a2 = _mm256_setzero_si256();
        __m256i a3 = _mm256_setzero_si256();
        for (std::size_t p = 0; p < in_pairs; ++p) {
          const __m256i wv = _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(wh + p * 2 * kQuantTile));
          a0 = _mm256_add_epi32(a0,
                                _mm256_madd_epi16(wv, bcast_pair(x0 + 2 * p)));
          a1 = _mm256_add_epi32(a1,
                                _mm256_madd_epi16(wv, bcast_pair(x1 + 2 * p)));
          a2 = _mm256_add_epi32(a2,
                                _mm256_madd_epi16(wv, bcast_pair(x2 + 2 * p)));
          a3 = _mm256_add_epi32(a3,
                                _mm256_madd_epi16(wv, bcast_pair(x3 + 2 * p)));
        }
        const __m256i acc[4] = {a0, a1, a2, a3};
        for (std::size_t j = 0; j < 4; ++j) {
          const __m256 t = _mm256_mul_ps(rsv, _mm256_set1_ps(xscale[n + j]));
          const __m256 yv =
              _mm256_add_ps(_mm256_mul_ps(_mm256_cvtepi32_ps(acc[j]), t), bv);
          _mm256_storeu_ps(y + (n + j) * out + r, yv);
        }
      }
      for (; n < batch; ++n) {
        const std::int16_t* xr = xq + n * stride;
        __m256i acc = _mm256_setzero_si256();
        for (std::size_t p = 0; p < in_pairs; ++p) {
          const __m256i wv = _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(wh + p * 2 * kQuantTile));
          acc = _mm256_add_epi32(acc,
                                 _mm256_madd_epi16(wv, bcast_pair(xr + 2 * p)));
        }
        const __m256 t = _mm256_mul_ps(rsv, _mm256_set1_ps(xscale[n]));
        const __m256 yv =
            _mm256_add_ps(_mm256_mul_ps(_mm256_cvtepi32_ps(acc), t), bv);
        _mm256_storeu_ps(y + n * out + r, yv);
      }
    }
  }
  // Remainder rows: column-pair-major of width w after the tiles.
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

// Fused tanh + requantize, 8 floats per vector. The polynomial body mirrors
// quant_fast_tanh op for op (mul/add/div/min/max are each one IEEE rounding,
// and this TU forbids contraction), the row abs-max is an order-free integer
// reduction, and _mm256_cvtps_epi32 rounds to nearest-even exactly like the
// scalar lrintf — so codes and scales bit-match scalar_quant_act.
void avx2_quant_act(float* h, std::size_t batch, std::size_t width,
                    std::size_t out_pairs, std::int16_t* qx, float* qscale) {
  const __m256 lo5 = _mm256_set1_ps(-5.0f);
  const __m256 hi5 = _mm256_set1_ps(5.0f);
  const __m256 c135135 = _mm256_set1_ps(135135.0f);
  const __m256 c17325 = _mm256_set1_ps(17325.0f);
  const __m256 c378 = _mm256_set1_ps(378.0f);
  const __m256 c62370 = _mm256_set1_ps(62370.0f);
  const __m256 c3150 = _mm256_set1_ps(3150.0f);
  const __m256 c28 = _mm256_set1_ps(28.0f);
  const __m256i absmask = _mm256_set1_epi32(0x7fffffff);
  const std::size_t stride = 2 * out_pairs;
  for (std::size_t n = 0; n < batch; ++n) {
    float* hn = h + n * width;
    std::int16_t* qn = qx + n * stride;
    __m256i amaxv = _mm256_setzero_si256();
    std::size_t c = 0;
    for (; c + 8 <= width; c += 8) {
      __m256 x = _mm256_loadu_ps(hn + c);
      x = _mm256_min_ps(_mm256_max_ps(x, lo5), hi5);
      const __m256 x2 = _mm256_mul_ps(x, x);
      const __m256 p = _mm256_mul_ps(
          x, _mm256_add_ps(
                 c135135,
                 _mm256_mul_ps(
                     x2, _mm256_add_ps(
                             c17325, _mm256_mul_ps(
                                         x2, _mm256_add_ps(c378, x2))))));
      const __m256 q = _mm256_add_ps(
          c135135,
          _mm256_mul_ps(
              x2, _mm256_add_ps(
                      c62370,
                      _mm256_mul_ps(
                          x2, _mm256_add_ps(c3150,
                                            _mm256_mul_ps(c28, x2))))));
      const __m256 t = _mm256_div_ps(p, q);
      _mm256_storeu_ps(hn + c, t);
      amaxv = _mm256_max_epu32(
          amaxv, _mm256_and_si256(_mm256_castps_si256(t), absmask));
    }
    __m128i m128 = _mm_max_epu32(_mm256_castsi256_si128(amaxv),
                                 _mm256_extracti128_si256(amaxv, 1));
    m128 = _mm_max_epu32(m128, _mm_shuffle_epi32(m128, _MM_SHUFFLE(1, 0, 3, 2)));
    m128 = _mm_max_epu32(m128, _mm_shuffle_epi32(m128, _MM_SHUFFLE(2, 3, 0, 1)));
    std::uint32_t m = static_cast<std::uint32_t>(_mm_cvtsi128_si32(m128));
    for (; c < width; ++c) {
      hn[c] = quant_fast_tanh(hn[c]);
      m = std::max(m, std::bit_cast<std::uint32_t>(hn[c]) & 0x7fffffffu);
    }
    if (m != 0) {
      const float amax = std::bit_cast<float>(m);
      const float inv = 127.0f / amax;
      const __m256 invv = _mm256_set1_ps(inv);
      const __m256i cpos = _mm256_set1_epi32(127);
      const __m256i cneg = _mm256_set1_epi32(-127);
      c = 0;
      for (; c + 8 <= width; c += 8) {
        __m256i i = _mm256_cvtps_epi32(_mm256_mul_ps(_mm256_loadu_ps(hn + c),
                                                     invv));
        i = _mm256_max_epi32(_mm256_min_epi32(i, cpos), cneg);
        const __m128i packed = _mm_packs_epi32(
            _mm256_castsi256_si128(i), _mm256_extracti128_si256(i, 1));
        _mm_storeu_si128(reinterpret_cast<__m128i*>(qn + c), packed);
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

/// knn_scan lanes: two ymm (rows 0-3 and 4-7) hold one column of an
/// eight-row block.
struct Avx2Rows {
  struct Vec {
    __m256d lo, hi;
  };
  static Vec zero() { return {_mm256_setzero_pd(), _mm256_setzero_pd()}; }
  static Vec load(const double* p) {
    return {_mm256_loadu_pd(p), _mm256_loadu_pd(p + 4)};
  }
  static Vec acc_sq(Vec acc, Vec x, double q) {
    const __m256d qv = _mm256_set1_pd(q);
    const __m256d d0 = _mm256_sub_pd(x.lo, qv);
    const __m256d d1 = _mm256_sub_pd(x.hi, qv);
    return {_mm256_add_pd(acc.lo, _mm256_mul_pd(d0, d0)),
            _mm256_add_pd(acc.hi, _mm256_mul_pd(d1, d1))};
  }
  static unsigned lt_mask(Vec a, double t) {
    const __m256d tv = _mm256_set1_pd(t);
    return static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_cmp_pd(a.lo, tv, _CMP_LT_OQ)) |
        (_mm256_movemask_pd(_mm256_cmp_pd(a.hi, tv, _CMP_LT_OQ)) << 4));
  }
  static void store(double* p, Vec a) {
    _mm256_storeu_pd(p, a.lo);
    _mm256_storeu_pd(p + 4, a.hi);
  }
};

/// tanh_rows, tanh_grad and adam_step lanes: four doubles per ymm.
struct Avx2F64 {
  using Vec = __m256d;
  static constexpr std::size_t kWidth = 4;
  static Vec load(const double* p) { return _mm256_loadu_pd(p); }
  static void store(double* p, Vec v) { _mm256_storeu_pd(p, v); }
  static Vec set1(double v) { return _mm256_set1_pd(v); }
  static Vec add(Vec a, Vec b) { return _mm256_add_pd(a, b); }
  static Vec sub(Vec a, Vec b) { return _mm256_sub_pd(a, b); }
  static Vec mul(Vec a, Vec b) { return _mm256_mul_pd(a, b); }
  static Vec div(Vec a, Vec b) { return _mm256_div_pd(a, b); }
  static Vec sqrt(Vec a) { return _mm256_sqrt_pd(a); }
  static Vec min(Vec a, Vec b) { return _mm256_min_pd(a, b); }
  static Vec lt(Vec a, Vec b) { return _mm256_cmp_pd(a, b, _CMP_LT_OQ); }
  static bool all(Vec m) { return _mm256_movemask_pd(m) == 0xf; }
  static Vec select(Vec m, Vec yes, Vec no) {
    return _mm256_blendv_pd(no, yes, m);
  }
  static Vec and_bits(Vec a, Vec b) { return _mm256_and_pd(a, b); }
  static Vec or_bits(Vec a, Vec b) { return _mm256_or_pd(a, b); }
  static Vec xor_bits(Vec a, Vec b) { return _mm256_xor_pd(a, b); }
  static Vec pow2(Vec kd) {
    const __m256i n = _mm256_sub_epi64(
        _mm256_castpd_si256(kd),
        _mm256_castpd_si256(_mm256_set1_pd(kTanhRound)));
    const __m256i bias =
        _mm256_set1_epi64x(static_cast<long long>(kTanhExpBias));
    return _mm256_castsi256_pd(
        _mm256_slli_epi64(_mm256_add_epi64(n, bias), 52));
  }
};

}  // namespace

void avx2_tanh_rows(const double* x, std::size_t n, double* y) {
  tanh_rows_vec<Avx2F64>(x, n, y);
}

void avx2_tanh_grad(const double* y, std::size_t n, double* g) {
  tanh_grad_vec<Avx2F64>(y, n, g);
}

void avx2_adam_step(double* p, const double* g, double* m, double* v,
                    std::size_t n, const AdamCoeffs& c) {
  adam_step_vec<Avx2F64>(p, g, m, v, n, c);
}

void avx2_knn_scan(const double* blocks, std::size_t rows, std::size_t dim,
                   std::size_t axis, std::size_t k, const double* queries,
                   std::size_t nq, std::size_t stride, double* kth) {
  knn_scan_window<Avx2Rows, 1, 2>(blocks, rows, dim, axis, k, queries, nq,
                                  stride, kth);
}

}  // namespace imap::nn::kernel::detail

#endif  // IMAP_KERNEL_AVX2
