#pragma once

#include <memory>

#include "common/serialize.h"
#include "nn/adam.h"
#include "nn/batch.h"
#include "nn/mlp.h"
#include "rl/rollout.h"

namespace imap::core {

/// Random Network Distillation (Burda et al. 2018) — the prediction-error
/// state-novelty estimator the paper considers and *rejects* in favour of
/// KNN (Sec. 5.2: "these methods suffer from forgetting problems"). It is
/// implemented here so the choice can be ablated (bench_ablation): a frozen
/// random target network f(s) and a trained predictor g(s); the bonus is the
/// prediction error ‖g(s) − f(s)‖², which decays as regions become familiar
/// — and, characteristically, *re-inflates* for regions the predictor has
/// forgotten.
class RndNovelty {
 public:
  RndNovelty(std::size_t obs_dim, std::size_t embed_dim, Rng rng,
             double lr = 1e-3);

  /// Train the predictor toward the frozen target on the rollout states
  /// (one pass of minibatch SGD per call). Runs through the batched nn
  /// kernels; bit-identical to the historical per-sample loop.
  void update(const rl::RolloutBuffer& buf, int minibatch = 128);

  /// Fill buf.rew_i with each state's prediction-error novelty
  /// ‖g(s) − f(s)‖², in chunked batched forwards; the predictor is not
  /// trained.
  void score(rl::RolloutBuffer& buf);

  /// Convenience: score then update — the same contract as an adversarial
  /// intrinsic regularizer's compute step.
  void compute(rl::RolloutBuffer& buf);

  std::size_t embed_dim() const { return target_.out_dim(); }

  /// Serialize both networks (the frozen target too, for safety against
  /// init-order drift), the predictor's Adam moments and the stream.
  void save_state(BinaryWriter& w) const;
  void load_state(BinaryReader& r);

 private:
  nn::Mlp target_;     ///< frozen random features
  nn::Mlp predictor_;  ///< distilled copy, trained online
  nn::Adam opt_;
  Rng rng_;
  nn::Batch obs_b_;    ///< reusable gathered-observation rows
  nn::Batch grad_b_;   ///< reusable dL/d(pred) rows
};

}  // namespace imap::core
