#pragma once

#include <memory>

#include "common/serialize.h"
#include "nn/adam.h"
#include "nn/gaussian.h"
#include "rl/rollout.h"

namespace imap::core {

/// The adversarial mimic policy π^{α,m} of the D-driven regularizer
/// (Sec. 5.2.4): a behaviour-cloned imitator of the AP's *past* policies.
/// Each iteration it takes a few supervised steps toward the latest rollout
/// (state, action) pairs, so it always lags the live policy — an exponential
/// moving summary of {π_i^α}. The bonus KL(π^α ‖ π^{α,m}) then rewards the
/// AP for deviating from where it used to be.
class MimicPolicy {
 public:
  MimicPolicy(std::size_t obs_dim, std::size_t act_dim,
              std::vector<std::size_t> hidden, Rng rng, double lr = 1e-3);

  /// Behaviour-clone toward the rollout (maximum-likelihood on the sampled
  /// actions) for `epochs` passes over minibatches of size `minibatch`.
  void update(const rl::RolloutBuffer& buf, int epochs = 2,
              int minibatch = 128);

  /// out[n] = KL(π(·|obs_n) ‖ π_m(·|obs_n)) in closed form (both diagonal
  /// Gaussians): one batched forward of each network, each on its own
  /// workspace, then the per-row KL. `out` is resized to obs.rows().
  void kl_from(const nn::GaussianPolicy& policy, const nn::Batch& obs,
               std::vector<double>& out);

  const nn::GaussianPolicy& policy() const { return mimic_; }

  /// Serialize the mimic weights, its Adam moments and its sampling stream.
  void save_state(BinaryWriter& w) const;
  void load_state(BinaryReader& r);

 private:
  nn::GaussianPolicy mimic_;
  nn::Adam opt_;
  Rng rng_;
  nn::Mlp::Workspace ws_policy_;  ///< kl_from's forwards of `policy`
};

}  // namespace imap::core
