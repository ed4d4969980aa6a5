#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "nn/batch.h"
#include "nn/mlp.h"

namespace imap::nn {

/// int8-quantized serving copy of a frozen Mlp — the victim fast path.
///
/// Scheme (per layer):
///  * Weights: per-row symmetric int8. row_scale[r] = max_c|W[r][c]| / 127,
///    wq[r][c] = round(W[r][c] / row_scale[r]) ∈ [-127, 127]. Stored as
///    int16 pairs packed tile-major (kernel::quant_packed_index, see
///    nn/kernel_backend.h): each kQuantTile-row tile keeps its 32 codes per
///    column pair in one contiguous cache line, so the SIMD kernels consume
///    a tile with one multiply-add per pair (madd_epi16) across output
///    lanes, and a tile streams contiguously — it stays cache-resident
///    across a batch sweep instead of thrashing a few cache sets. Odd `in`
///    zero-pads the last pair.
///  * Activations: per-sample symmetric int8 (dynamic). For each sample,
///    amax = max_c|x[c]|, xq[c] = round(127·x[c]/amax) ∈ [-127, 127],
///    xscale = amax / 127 (amax = 0 ⇒ all-zero codes, xscale 0).
///  * Accumulation: int32 over column pairs — exact, hence bit-identical
///    across kernel backends — then one fixed float dequant chain
///    y[r] = float(acc)·(row_scale[r]·xscale) + bias[r]. Hidden activations
///    go through kernel::quant_act — a fused rational fast_tanh (Padé(7,6),
///    max error ≈ 1.1e-4, see nn/kernel_impl.h) plus re-quantization for the
///    next layer; the final layer is widened to double.
///
/// Accuracy contract: quantization error is bounded and pinned by tests —
/// for policy-scale networks the max |Δaction| against the fp64 Mlp stays
/// under kQuantActionTolerance (asserted in tests/test_quant.cpp and
/// re-measured by bench_micro_infer). Training never touches this path; it
/// exists only for inference-heavy frozen victims, reached through
/// rl::PolicyHandle::serving (the daemon, and experiment victims under
/// IMAP_VICTIM_QUANT=1).
///
/// A QuantizedMlp is a derived, in-memory artifact: it is built from a live
/// Mlp and keyed by Mlp::weight_version(), never serialized. Checkpoint
/// restores bump the version (and the archive format version guards the
/// on-disk weights themselves), so a stale quantization can always be
/// detected via stale_for() and rebuilt.
class QuantizedMlp {
 public:
  explicit QuantizedMlp(const Mlp& net);

  std::size_t in_dim() const { return in_dim_; }
  std::size_t out_dim() const { return out_dim_; }

  /// True when `net` does not hold the weights this quantization was built
  /// from (Mlp::weight_version is process-unique per weight state).
  bool stale_for(const Mlp& net) const {
    return built_version_ != net.weight_version();
  }

  /// Quantized batched forward. Mirrors Mlp::forward_batch row-for-row
  /// (fast_tanh hidden activations, linear output) through the int8
  /// kernels; scratch lives in the caller's workspace (the q* buffers), so
  /// steady state allocates nothing. Returns the output rows (reference
  /// into `ws`, valid until the next call). Bit-identical across kernel
  /// backends and across batch sizes (each row is processed independently).
  const Batch& forward_batch(const Batch& x, Mlp::Workspace& ws) const;

 private:
  struct QLayer {
    std::size_t in;
    std::size_t out;
    std::size_t in_pairs;               ///< ceil(in / 2)
    std::vector<std::int16_t> wq_packed;  ///< 2·in_pairs·out codes
    std::vector<float> row_scale;         ///< out
    std::vector<float> bias;              ///< out (fp32 copy of b)
  };

  std::vector<QLayer> layers_;
  std::size_t in_dim_ = 0;
  std::size_t out_dim_ = 0;
  std::size_t max_pairs_ = 0;  ///< widest layer input, in pairs
  std::size_t max_out_ = 0;    ///< widest layer output
  std::uint64_t built_version_ = 0;
};

/// Tested ceiling on max |Δaction| between QuantizedMlp and the fp64 Mlp for
/// the policy networks this library builds (unit-scale observations, tanh
/// hiddens). Asserted in tests/test_quant.cpp and reported alongside the
/// throughput numbers in BENCH_infer.json.
inline constexpr double kQuantActionTolerance = 5e-2;

}  // namespace imap::nn
