#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace imap::nn {

/// The shared dense kernels every MLP code path routes through. The
/// per-sample kernels (affine, matvec_t_acc, outer_acc) define the summation
/// order: the scalar backend's blocked loops replay them per row, and the
/// kernel-matrix tests use them as the reference every batched backend
/// (Mlp::forward_batch / backward_batch) is pinned against.
///
/// Determinism contract: for each output element the reduction over the
/// contraction dimension runs sequentially in ascending index order,
/// starting from the bias (or the existing accumulator for the *_acc
/// kernels). Blocking — and SIMD lanes in the wider backends — is only
/// ever applied across *independent* output elements (batch rows, output
/// neurons, weight entries), and the vector paths use separate mul/add
/// with FP contraction disabled per translation unit, so the batched
/// kernels are bit-identical to calling the per-sample kernel once per row
/// on any hardware.
///
/// The batched entry points below dispatch to a runtime-selected backend
/// (scalar / avx2 / avx512 / neon, see nn/kernel_backend.h). Selection is
/// CPUID-driven with an `IMAP_KERNEL` override; because every backend obeys
/// the contract, the choice affects throughput only, never bits.
namespace kernel {

struct AdamCoeffs;  // nn/kernel_backend.h

/// y[r] = b[r] + Σ_c w[r·in + c]·x[c]   (b == nullptr ⇒ bias 0).
void affine(const double* w, const double* b, std::size_t out, std::size_t in,
            const double* x, double* y);

/// y[c] += Σ_r w[r·in + c]·x[r], accumulated r-outer / c-inner — the
/// backward input-gradient order.
void matvec_t_acc(const double* w, std::size_t out, std::size_t in,
                  const double* x, double* y);

/// m[r·cols + c] += (u[r]·scale)·v[c].
void outer_acc(double* m, std::size_t rows, std::size_t cols, const double* u,
               const double* v, double scale);

/// Y[n] = W·X[n] + b for every batch row n. X is batch×in, Y batch×out,
/// both row-major. Vectorised across output neurons (SIMD backends) or
/// blocked 4 batch rows at a time (scalar); per-(n,r) summation order
/// matches affine() exactly in every variant.
void batch_affine(const double* w, const double* b, std::size_t out,
                  std::size_t in, const double* x, std::size_t batch,
                  double* y);

/// As above, with an optional caller-cached column-major weight copy
/// (wt[c·out + r], or nullptr). Backends that vectorise across output
/// lanes read `wt` instead of re-transposing `w` per call, and the
/// small-batch dispatch gate drops to the backend's cached threshold
/// (Mlp::Workspace maintains this cache keyed by a weight version).
void batch_affine(const double* w, const double* wt, const double* b,
                  std::size_t out, std::size_t in, const double* x,
                  std::size_t batch, double* y);

/// GIN[n] = Wᵀ·G[n] for every batch row n (overwrites GIN). Per-row
/// accumulation order matches matvec_t_acc on a zeroed output.
void batch_matvec_t(const double* w, std::size_t out, std::size_t in,
                    const double* g, std::size_t batch, double* gin);

/// dW[r·in + c] += Σ_n G[n][r]·X[n][c] and db[r] += Σ_n G[n][r], with the
/// per-entry sum over n sequential in ascending n — bit-identical to
/// accumulating one sample at a time via outer_acc.
void batch_outer_acc(const double* g, const double* x, std::size_t batch,
                     std::size_t out, std::size_t in, double* dw, double* db);

/// int8 serving kernel (layout and quantization scheme in nn/quant.h):
///   y[n][r] = float(Σ_p wq[p][r]·xq[n][p]) · (row_scale[r]·xscale[n])
///             + bias[r]
/// with exact int32 accumulation over column pairs. Dispatches to the
/// active backend's int8 path, or the scalar reference when the backend
/// has none (e.g. neon); bit-identical across backends either way.
void quant_affine(const std::int16_t* wq_packed, const float* row_scale,
                  const float* bias, std::size_t out, std::size_t in_pairs,
                  const std::int16_t* xq, const float* xscale,
                  std::size_t batch, float* y);

/// Fused serving activation between quantized layers: overwrite the
/// batch×width block `h` with the rational fast_tanh, then int8-requantize
/// each row into pair-aligned codes (stride 2·out_pairs, zero-padded) with
/// per-sample scales. Dispatches like quant_affine; every op is one IEEE
/// rounding, so backends are bit-identical (see nn/kernel_backend.h).
void quant_act(float* h, std::size_t batch, std::size_t width,
               std::size_t out_pairs, std::int16_t* qx, float* qscale);

/// y[i] = tanh(x[i]) for i < n: the deterministic fp64 activation of the
/// MLP forward (within 2 ulp of std::tanh, the same bits on every backend;
/// see KernelBackend::tanh_rows). Dispatches like quant_affine.
void tanh_rows(const double* x, std::size_t n, double* y);

/// g[i] *= 1 − y[i]² for i < n: the gradient through a tanh layer with
/// output y (the same bits on every backend; see KernelBackend::tanh_grad).
/// Dispatches like quant_affine.
void tanh_grad(const double* y, std::size_t n, double* g);

/// One Adam update of n parameters in place (see KernelBackend::adam_step;
/// the same bits on every backend). Dispatches like quant_affine.
void adam_step(double* p, const double* g, double* m, double* v,
               std::size_t n, const AdamCoeffs& c);

}  // namespace kernel

/// Elementwise helpers over flat vectors (used throughout the nn/rl code).
void axpy(std::vector<double>& y, double a, const std::vector<double>& x);
double dot(const std::vector<double>& a, const std::vector<double>& b);
double l2norm(const std::vector<double>& a);
double linf_norm(const std::vector<double>& a);
std::vector<double> sub(const std::vector<double>& a,
                        const std::vector<double>& b);
std::vector<double> add(const std::vector<double>& a,
                        const std::vector<double>& b);
void scale_inplace(std::vector<double>& a, double s);
void clamp_inplace(std::vector<double>& a, double lo, double hi);

}  // namespace imap::nn
