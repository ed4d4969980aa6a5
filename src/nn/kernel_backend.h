#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace imap::nn::kernel {

/// Output-row tile height of the packed int8 weight layout (see
/// quant_packed_index). 16 rows × one int16 column pair = 32 codes = one
/// 64-byte cache line = exactly one AVX-512 vector; AVX2 consumes a tile as
/// two 256-bit halves and scalar walks lanes within it.
inline constexpr std::size_t kQuantTile = 16;

/// Flat index of weight element (row r, column c) inside a quantized
/// layer's packed buffer (2·in_pairs·out int16 codes). The layout is
/// tile-major: full kQuantTile-row tiles first, each storing its 32 codes
/// for column pair p = c/2 contiguously —
///   ((r/16)·in_pairs + p)·32 + (r%16)·2 + c%2
/// — so a tile's weights stream as consecutive cache lines and distribute
/// evenly across cache sets (a row-interleaved layout at stride 2·out puts
/// every line of a row tile in the same few sets once out·4 bytes hits a
/// power of two, and the conflict misses defeat cross-sample reuse). The
/// out%16 remainder rows sit after the tiles in column-pair-major order:
///   full·in_pairs·32 + (p·w + r - full·16)·2 + c%2,  w = out%16.
/// Odd `in` zero-pads the last pair. Shared by the packer (nn/quant.cpp),
/// every backend kernel, and the layout tests.
inline std::size_t quant_packed_index(std::size_t r, std::size_t c,
                                      std::size_t out, std::size_t in_pairs) {
  const std::size_t p = c / 2;
  const std::size_t tile = r / kQuantTile;
  if ((tile + 1) * kQuantTile <= out)
    return (tile * in_pairs + p) * 2 * kQuantTile + (r % kQuantTile) * 2 +
           c % 2;
  const std::size_t full = out / kQuantTile;
  const std::size_t w = out - full * kQuantTile;
  return full * in_pairs * 2 * kQuantTile +
         (p * w + (r - full * kQuantTile)) * 2 + c % 2;
}

/// Rows per block of the KNN buffer layout (see knn_blocked_index): one
/// AVX-512 vector, two AVX2 vectors or four NEON vectors of fp64 lanes.
inline constexpr std::size_t kKnnLanes = 8;

/// Largest neighbour rank k a knn_scan call accepts (its per-query top-k
/// lists live on the stack).
inline constexpr std::size_t kKnnMaxK = 16;

/// Flat index of element (row r, column c) in the blocked KNN buffer layout
/// [block][col][lane]: kKnnLanes consecutive rows form a block, and within a
/// block each column's kKnnLanes values are contiguous, so one vector load
/// reads one column of eight independent rows. A partial last block keeps
/// its unused lanes allocated (read by the kernels, never reported).
/// Shared by core::KnnBuffer, every backend kernel, and the layout tests.
inline std::size_t knn_blocked_index(std::size_t r, std::size_t c,
                                     std::size_t dim) {
  return ((r / kKnnLanes) * dim + c) * kKnnLanes + r % kKnnLanes;
}

/// Per-step coefficients of KernelBackend::adam_step: the optimiser's
/// hyper-parameters, the bias corrections bc1 = 1 − β1ᵗ and bc2 = 1 − β2ᵗ,
/// and the gradient clip factor (1 when clipping is inactive).
struct AdamCoeffs {
  double lr, beta1, beta2, eps, bc1, bc2, clip;
};

/// One SIMD (or scalar) implementation of the batched kernel set. Backends
/// are compiled-in per architecture (scalar everywhere; avx2/avx512 on
/// x86-64; neon on aarch64) and selected at runtime: CPUID picks the widest
/// supported one, `IMAP_KERNEL=auto|scalar|avx2|avx512|neon` overrides.
///
/// Every backend honours the determinism contract of `kernel::` (see
/// nn/matrix.h): lanes only across independent output elements, separate
/// mul/add with FP contraction disabled at the translation-unit level, each
/// lane running the exact scalar reduction chain. The fp64 kernels are
/// therefore bit-identical across backends; the int8 kernel is bit-identical
/// across backends too (integer accumulation is exact, and the dequant float
/// chain is fixed), differing only from the fp64 *reference* by the
/// quantization error (see nn/quant.h).
struct KernelBackend {
  const char* name;

  /// CPUID probe: true when this machine can execute the backend.
  bool (*supported)();

  /// Y[n] = W·X[n] + b. `wt` is an optional column-major copy of `w`
  /// (wt[c·out + r]); lanes-across-outputs backends read it when non-null
  /// and fall back to a local thread-cached transpose otherwise. The scalar
  /// backend ignores it.
  void (*batch_affine)(const double* w, const double* wt, const double* b,
                       std::size_t out, std::size_t in, const double* x,
                       std::size_t batch, double* y);

  /// GIN[n] = Wᵀ·G[n] (overwrites GIN).
  void (*batch_matvec_t)(const double* w, std::size_t out, std::size_t in,
                         const double* g, std::size_t batch, double* gin);

  /// dW += Σ_n G[n]⊗X[n], db += Σ_n G[n].
  void (*batch_outer_acc)(const double* g, const double* x, std::size_t batch,
                          std::size_t out, std::size_t in, double* dw,
                          double* db);

  /// int8 serving kernel (see nn/quant.h for the scheme):
  ///   y[n][r] = float(Σ_p wq[p][r]·xq[n][p]) · (row_scale[r]·xscale[n])
  ///             + bias[r]
  /// Weights arrive pre-packed tile-major as int16 pairs (element (r, c) at
  /// quant_packed_index(r, c, out, in_pairs) — one cache line per
  /// kQuantTile-row tile per column pair); activations are int16 rows of
  /// stride 2·in_pairs, zero-padded on the last pair when `in` is odd.
  /// Null ⇒ dispatch falls back to scalar.
  void (*quant_affine)(const std::int16_t* wq_packed, const float* row_scale,
                       const float* bias, std::size_t out,
                       std::size_t in_pairs, const std::int16_t* xq,
                       const float* xscale, std::size_t batch, float* y);

  /// Fused serving activation between quantized layers: overwrite the
  /// batch×width row block `h` with the rational fast_tanh (see
  /// kernel_impl.h), then int8-requantize each row into pair-aligned codes
  /// (stride 2·out_pairs, zero-padded) with per-sample scales. Every op in
  /// the chain is one IEEE rounding (mul/add/div/min/max, integer abs-max,
  /// round-to-nearest-even convert), so vector and scalar evaluations are
  /// bitwise identical — backends only change the speed, never the codes.
  /// Null ⇒ dispatch falls back to scalar.
  void (*quant_act)(float* h, std::size_t batch, std::size_t width,
                    std::size_t out_pairs, std::int16_t* qx, float* qscale);

  /// KNN scan: for each query i (dim values at queries + i·stride) write
  /// to kth[i] the k-th smallest squared Euclidean distance to the `rows`
  /// rows of `blocks` (blocked layout, see knn_blocked_index), or +inf when
  /// rows < k. 1 ≤ k ≤ kKnnMaxK. The rows must be ordered by column `axis`
  /// (non-decreasing, no NaN there); other columns may hold anything. Each
  /// (query, row) pair accumulates sq += d·d over c = 0..dim-1 left to right
  /// with separate sub/mul/add. The scan is windowed: it visits queries in
  /// `axis` order and skips only rows whose axis term alone already reaches
  /// a query's k-th best, which the monotone rounded chain cannot then
  /// undercut. The k-th smallest value of the set does not depend on visit
  /// order, so every backend returns the brute-force bits. A query with a
  /// non-finite value gets +inf, as the brute force gives it. No internal
  /// threading: callers split the queries.
  void (*knn_scan)(const double* blocks, std::size_t rows, std::size_t dim,
                   std::size_t axis, std::size_t k, const double* queries,
                   std::size_t nq, std::size_t stride, double* kth);

  /// y[i] = tanh(x[i]) for i < n, in fp64: the hidden-layer activation of
  /// Mlp::forward_batch. One op DAG (nn/kernel_impl.h tanh_fp64) — range
  /// reduction plus fixed rationals, separate mul/add/div, no FMA — so every
  /// backend returns the same bits, within 2 ulp of std::tanh; NaN maps to
  /// NaN, ±0 and subnormals to themselves, ±inf to ±1. x == y is allowed.
  /// Null ⇒ dispatch falls back to scalar.
  void (*tanh_rows)(const double* x, std::size_t n, double* y);

  /// g[i] *= 1 − y[i]² for i < n: the tanh derivative that
  /// Mlp::backward_batch and input_gradient_batch apply to a hidden layer's
  /// gradient, y being that layer's tanh output. One op DAG (nn/kernel_impl.h
  /// tanh_grad_fp64: mul, sub, mul), so every backend returns the same bits.
  /// Null ⇒ dispatch falls back to scalar.
  void (*tanh_grad)(const double* y, std::size_t n, double* g);

  /// One Adam update of n parameters in place (the body of nn::Adam::step
  /// after its sequential grad-norm sum): per element, with g = grad·clip,
  ///   m = β1·m + (1 − β1)·g,  v = β2·v + ((1 − β2)·g)·g,
  ///   p = p − (lr·(m / bc1)) / (√(v / bc2) + eps).
  /// One op DAG (nn/kernel_impl.h adam_fp64), separate mul/add/div/sqrt, no
  /// FMA, lanes only across elements, so every backend returns the same
  /// bits. Null ⇒ dispatch falls back to scalar.
  void (*adam_step)(double* p, const double* g, double* m, double* v,
                    std::size_t n, const AdamCoeffs& c);

  /// True when batch_affine vectorises across output lanes and therefore
  /// profits from the caller-cached transpose (Mlp::Workspace::wt).
  bool wants_transposed;

  /// Smallest batch for which this backend's batch_affine beats the scalar
  /// blocked path — below it the dispatcher silently uses scalar. Two
  /// thresholds: without a caller-provided transpose the backend pays an
  /// O(out·in) per-call transpose and needs a few rows to amortise it; with
  /// the Workspace-cached transpose the gate drops to 1 (measured, see
  /// DESIGN.md "kernel backends").
  std::size_t min_batch_affine;
  std::size_t min_batch_affine_cached;
};

/// The backend answering dispatched kernel:: calls right now: the forced one
/// (tests), else the IMAP_KERNEL choice, else the widest CPU-supported one.
const KernelBackend& active_backend();

/// The scalar reference backend (always compiled, always supported).
const KernelBackend& scalar_backend();

/// Every backend compiled into this binary, widest-first (availability on
/// this CPU not implied — check supported()).
const std::vector<const KernelBackend*>& all_backends();

/// Compiled-in backend by name, or nullptr (e.g. "neon" on an x86 build).
const KernelBackend* find_backend(const std::string& name);

/// Test hook: force `be` (nullptr = back to env/CPU resolution). Returns the
/// previous forced value. Not thread-safe — flip it only from test setup,
/// never while worker threads run kernels.
const KernelBackend* set_forced_backend(const KernelBackend* be);

/// RAII forcing of one backend for a test scope. `activated()` is false when
/// the named backend is not compiled in or the CPU cannot run it (the test
/// should skip); the previous selection is restored either way on
/// destruction.
class ScopedBackend {
 public:
  explicit ScopedBackend(const std::string& name);
  ~ScopedBackend();
  ScopedBackend(const ScopedBackend&) = delete;
  ScopedBackend& operator=(const ScopedBackend&) = delete;

  bool activated() const { return activated_; }

 private:
  const KernelBackend* prev_ = nullptr;
  bool activated_ = false;
};

}  // namespace imap::nn::kernel
