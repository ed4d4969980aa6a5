#include "nn/matrix.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "nn/kernel_backend.h"

namespace imap::nn {

namespace kernel {

void affine(const double* w, const double* b, std::size_t out, std::size_t in,
            const double* x, double* y) {
  for (std::size_t r = 0; r < out; ++r) {
    const double* row = w + r * in;
    double s = b ? b[r] : 0.0;
    for (std::size_t c = 0; c < in; ++c) s += row[c] * x[c];
    y[r] = s;
  }
}

void matvec_t_acc(const double* w, std::size_t out, std::size_t in,
                  const double* x, double* y) {
  for (std::size_t r = 0; r < out; ++r) {
    const double* row = w + r * in;
    const double xr = x[r];
    for (std::size_t c = 0; c < in; ++c) y[c] += row[c] * xr;
  }
}

void outer_acc(double* m, std::size_t rows, std::size_t cols, const double* u,
               const double* v, double scale) {
  for (std::size_t r = 0; r < rows; ++r) {
    double* row = m + r * cols;
    const double ur = u[r] * scale;
    for (std::size_t c = 0; c < cols; ++c) row[c] += ur * v[c];
  }
}

// Batched entry points: thin dispatchers over the runtime-selected backend
// (nn/kernel_backend.h). batch_affine additionally applies the backend's
// measured small-batch gate — below it the scalar blocked path wins on
// throughput; results are bit-identical either way, the threshold is purely
// a speed choice and drops when the caller supplies a cached transpose.

void batch_affine(const double* w, const double* b, std::size_t out,
                  std::size_t in, const double* x, std::size_t batch,
                  double* y) {
  batch_affine(w, nullptr, b, out, in, x, batch, y);
}

void batch_affine(const double* w, const double* wt, const double* b,
                  std::size_t out, std::size_t in, const double* x,
                  std::size_t batch, double* y) {
  const KernelBackend& be = active_backend();
  const std::size_t gate =
      wt != nullptr ? be.min_batch_affine_cached : be.min_batch_affine;
  if (batch >= gate) {
    be.batch_affine(w, wt, b, out, in, x, batch, y);
  } else {
    scalar_backend().batch_affine(w, nullptr, b, out, in, x, batch, y);
  }
}

void batch_matvec_t(const double* w, std::size_t out, std::size_t in,
                    const double* g, std::size_t batch, double* gin) {
  active_backend().batch_matvec_t(w, out, in, g, batch, gin);
}

void batch_outer_acc(const double* g, const double* x, std::size_t batch,
                     std::size_t out, std::size_t in, double* dw, double* db) {
  active_backend().batch_outer_acc(g, x, batch, out, in, dw, db);
}

void quant_affine(const std::int16_t* wq_packed, const float* row_scale,
                  const float* bias, std::size_t out, std::size_t in_pairs,
                  const std::int16_t* xq, const float* xscale,
                  std::size_t batch, float* y) {
  const KernelBackend& be = active_backend();
  auto fn = be.quant_affine ? be.quant_affine : scalar_backend().quant_affine;
  fn(wq_packed, row_scale, bias, out, in_pairs, xq, xscale, batch, y);
}

void quant_act(float* h, std::size_t batch, std::size_t width,
               std::size_t out_pairs, std::int16_t* qx, float* qscale) {
  const KernelBackend& be = active_backend();
  auto fn = be.quant_act ? be.quant_act : scalar_backend().quant_act;
  fn(h, batch, width, out_pairs, qx, qscale);
}

void tanh_rows(const double* x, std::size_t n, double* y) {
  const KernelBackend& be = active_backend();
  auto fn = be.tanh_rows ? be.tanh_rows : scalar_backend().tanh_rows;
  fn(x, n, y);
}

void tanh_grad(const double* y, std::size_t n, double* g) {
  const KernelBackend& be = active_backend();
  auto fn = be.tanh_grad ? be.tanh_grad : scalar_backend().tanh_grad;
  fn(y, n, g);
}

void adam_step(double* p, const double* g, double* m, double* v,
               std::size_t n, const AdamCoeffs& c) {
  const KernelBackend& be = active_backend();
  auto fn = be.adam_step ? be.adam_step : scalar_backend().adam_step;
  fn(p, g, m, v, n, c);
}

}  // namespace kernel

void axpy(std::vector<double>& y, double a, const std::vector<double>& x) {
  IMAP_CHECK(y.size() == x.size());
  for (std::size_t i = 0; i < y.size(); ++i) y[i] += a * x[i];
}

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  IMAP_CHECK(a.size() == b.size());
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double l2norm(const std::vector<double>& a) { return std::sqrt(dot(a, a)); }

double linf_norm(const std::vector<double>& a) {
  double m = 0.0;
  for (double x : a) m = std::max(m, std::abs(x));
  return m;
}

std::vector<double> sub(const std::vector<double>& a,
                        const std::vector<double>& b) {
  IMAP_CHECK(a.size() == b.size());
  std::vector<double> y(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) y[i] = a[i] - b[i];
  return y;
}

std::vector<double> add(const std::vector<double>& a,
                        const std::vector<double>& b) {
  IMAP_CHECK(a.size() == b.size());
  std::vector<double> y(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) y[i] = a[i] + b[i];
  return y;
}

void scale_inplace(std::vector<double>& a, double s) {
  for (double& x : a) x *= s;
}

void clamp_inplace(std::vector<double>& a, double lo, double hi) {
  for (double& x : a) x = std::clamp(x, lo, hi);
}

}  // namespace imap::nn
