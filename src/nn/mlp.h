#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/serialize.h"
#include "nn/batch.h"

namespace imap::nn {

/// Fully-connected network with tanh hidden activations and a linear output
/// layer, trained by manual backpropagation.
///
/// Parameters and gradients live in flat vectors so an optimiser (Adam) can
/// treat the whole network as one parameter block; per-layer (W, b) views
/// index into the flats. Training passes are batched: forward_batch records
/// activations in a Workspace (caller-owned, or the network's own) and
/// backward_batch / input_gradient_batch read them back. forward_batch is
/// the only forward: a single sample is a one-row batch, and per-row callers
/// keep a Workspace for each network they query.
class Mlp {
 public:
  /// `sizes` = {in, hidden..., out}. Weights ~ N(0, 1/sqrt(fan_in)) scaled by
  /// `init_scale`; the output layer is additionally shrunk (x0.01) which is
  /// standard for policy heads.
  Mlp(std::vector<std::size_t> sizes, Rng& rng, double init_scale = 1.0);

  /// Reusable arena for the batched kernels: the batched activation tape
  /// (pre/post per layer) plus the backward ping-pong scratch. All buffers
  /// grow to the high-water batch size once and are then reused — zero heap
  /// allocations per step in steady state. One Workspace may be in flight
  /// per thread; the Mlp itself stays read-only during batched forwards.
  ///
  /// The workspace also carries the per-layer column-major weight copies the
  /// lanes-across-outputs SIMD backends read (`wt`), keyed by
  /// weight_version: forward_batch rebuilds them only when the weights it is
  /// asked to run differ from the ones the cache was built from, so frozen
  /// victims pay the O(out·in) transpose once instead of on every tick. Two
  /// networks taking turns on one workspace rebuild it on every call, so
  /// keep one workspace per network. The `q*` buffers are scratch for the
  /// int8 serving path (nn/quant.h) — plain members here so QuantizedMlp can
  /// reuse the same zero-allocation arena without a circular header.
  struct Workspace {
    std::vector<Batch> pre;   ///< pre-activations per layer (B×out)
    std::vector<Batch> post;  ///< post-activations (post[0] = input copy)
    Batch g;                  ///< dL/d(pre-activation) scratch
    Batch gin;                ///< dL/d(input of layer) scratch

    std::vector<std::vector<double>> wt;  ///< per-layer Wᵀ (in×out, i.e.
                                          ///< wt[c·out + r] = w[r·in + c])
    std::uint64_t wt_version = 0;         ///< weight_version() at build time
                                          ///< (0 = never built)

    std::vector<std::int16_t> qx;  ///< quantized activations (B×2·in_pairs)
    std::vector<float> qscale;     ///< per-sample dequant scales (B)
    std::vector<float> qh;         ///< layer output ping buffer (B×out)
    std::vector<float> qh2;        ///< layer output pong buffer (B×out)
    Batch qout;                    ///< final fp64 output rows (B×out)
  };

  /// Batched inference/training forward: stacks B samples through the
  /// blocked kernels, recording the activation tape in `ws`. Returns the
  /// output rows (a reference into `ws`, valid until the next call). Each
  /// row is bit-identical to a one-row batch of that row.
  const Batch& forward_batch(const Batch& x, Workspace& ws) const;

  /// Convenience overload on the Mlp-owned workspace (hence non-const:
  /// concurrent use of one Mlp's owned workspace would race).
  const Batch& forward_batch(const Batch& x) { return forward_batch(x, ws_); }

  /// Batched backward through the tape recorded by forward_batch on `ws`:
  /// accumulates dL/dparams into the gradient buffer. Gradients are
  /// bit-identical to running one 1-row batch per row in ascending row
  /// order. dL/dinput is not formed (layer 0 stops after its parameter
  /// gradients); callers that need it call input_gradient_batch on the
  /// same tape, which backward_batch leaves intact.
  void backward_batch(Workspace& ws, const Batch& grad_out);
  void backward_batch(const Batch& grad_out) { backward_batch(ws_, grad_out); }

  /// Batched dL/dinput only (parameter gradients untouched): the one
  /// input-gradient path. Returns rows in `ws`, valid until its next use.
  const Batch& input_gradient_batch(Workspace& ws,
                                    const Batch& grad_out) const;

  Workspace& workspace() { return ws_; }

  void zero_grad();

  /// Mutable access conservatively bumps the weight version: callers that
  /// take this reference are about to write (Adam steps, checkpoint
  /// restores), and over-invalidation only costs a transpose rebuild while
  /// under-invalidation would serve stale weights from cached transposes.
  /// Contract: do NOT hold this reference and mutate across forward calls —
  /// re-acquire it around each mutation so the version advances (writes
  /// through a stored reference are invisible to the counter).
  std::vector<double>& params() {
    weight_version_ = next_weight_version();
    return params_;
  }
  const std::vector<double>& params() const { return params_; }

  /// Identifies the current weight values process-wide: construction,
  /// load_state and every mutable params() access draw a fresh value from
  /// one atomic counter, and a copy keeps its source's value (it holds the
  /// same weights). Two live or successive networks therefore share a
  /// version only when they hold identical weights of identical shape —
  /// which is what keys the Workspace transpose cache and
  /// QuantizedMlp::stale_for (an address would not: a new network can be
  /// built where a freed one lived).
  std::uint64_t weight_version() const { return weight_version_; }

  /// Ensure ws.wt holds this network's current per-layer transposes.
  /// No-op when the version already matches — the steady-state path.
  void ensure_transpose_cache(Workspace& ws) const;
  std::vector<double>& grads() { return grads_; }
  const std::vector<double>& grads() const { return grads_; }

  std::size_t in_dim() const { return sizes_.front(); }
  std::size_t out_dim() const { return sizes_.back(); }
  const std::vector<std::size_t>& sizes() const { return sizes_; }

  /// Serialize architecture + weights; load_state checks the architecture
  /// matches and restores the weights (gradients are transient, not saved).
  void save_state(BinaryWriter& w) const;
  void load_state(BinaryReader& r);

 private:
  struct LayerView {
    std::size_t w_off;  ///< offset of W (out×in, row-major) in the flat block
    std::size_t b_off;  ///< offset of b (out) in the flat block
    std::size_t in;
    std::size_t out;
  };

  std::vector<std::size_t> sizes_;
  std::vector<LayerView> layers_;
  std::vector<double> params_;
  std::vector<double> grads_;
  static std::uint64_t next_weight_version();

  std::uint64_t weight_version_ = next_weight_version();
  Workspace ws_;  ///< owned arena for the convenience batched overloads
};

}  // namespace imap::nn
