#pragma once

#include <memory>

#include "attack/threat_model.h"
#include "core/bias_reduction.h"
#include "core/regularizer.h"
#include "rl/ppo.h"

namespace imap::core {

/// Configuration of one IMAP attack (Algorithm 1).
struct ImapOptions {
  RegularizerOptions reg;
  bool bias_reduction = false;
  double eta = 5.0;    ///< BR dual step size (Eq. 17)
  double tau0 = 1.0;   ///< fixed temperature when BR is off; τ_0 otherwise
  /// Episode surrogates are divided by this before feeding J_AP to BR so the
  /// dual step size η means the same thing on dense tasks (per-step success
  /// indicators summing to hundreds) as on sparse ones (0/1 per episode).
  double surrogate_scale = 1.0;
  rl::PpoOptions ppo;
};

/// IMAP: Intrinsically Motivated Adversarial Policy learning — the paper's
/// core contribution. A PPO adversary over the black-box threat-model MDP,
/// augmented with an adversarial intrinsic regularizer (SC/PC/R/D) entering
/// as a second advantage stream Â_E + τ_k·Â_I (Eq. 14), with τ_k scheduled
/// by Bias-Reduction (Eq. 15–17) when enabled.
class ImapTrainer {
 public:
  /// Single-agent form: state-perturbation attack within ‖a^α‖∞ ≤ ε. If the
  /// R regularizer is selected and no risk_target is set, s₀^ν is estimated
  /// from a handful of environment resets. A network-backed victim handle
  /// lets the vectorized rollout engine batch victim queries.
  ImapTrainer(const rl::Env& deploy_env, rl::PolicyHandle victim, double eps,
              ImapOptions opts, Rng rng);

  /// Multi-agent form: opponent-control attack on a Markov game; the
  /// regularizer marginals default to the game's Π_{S^ν}/Π_{S^α} ranges.
  ImapTrainer(const env::MultiAgentEnv& game, rl::PolicyHandle victim,
              ImapOptions opts, Rng rng);

  /// Pre-built attack-view env (e.g. a scenario::ScenarioEnv in Adversary
  /// mode). Rng split discipline matches the single-agent ctor exactly:
  /// split(0x5eed) for R-target estimation, split(0x4e67) for the
  /// regularizer, split(1) for the PPO trainer — so a trivial scenario spec
  /// reproduces the classic ctor bit-for-bit.
  ImapTrainer(const rl::Env& attack_env, ImapOptions opts, Rng rng);

  rl::IterStats iterate() { return trainer_->iterate(); }
  std::vector<rl::IterStats> train(long long steps) {
    return trainer_->train(steps);
  }

  /// Frozen deterministic adversary (a snapshot of the mean policy) for
  /// evaluation.
  rl::PolicyHandle adversary() const;

  rl::PpoTrainer& trainer() { return *trainer_; }
  const BiasReduction& bias_reduction() const { return br_; }
  const AdversarialRegularizer& regularizer() const { return *reg_; }
  double tau() const { return br_.tau(); }

  /// Snapshot the full attack state: the PPO trainer plus the BR dual state
  /// and the regularizer's knowledge (union buffers / mimic). Restoring into
  /// an ImapTrainer built with identical ctor arguments resumes training
  /// bit-identically.
  void save_state(ArchiveWriter& a) const;
  void load_state(const ArchiveReader& a);
  bool snapshot(const std::string& path) const;
  bool restore(const std::string& path);

 private:
  void finish_setup(const rl::Env& attack_env, ImapOptions opts, Rng rng);

  ImapOptions opts_;
  BiasReduction br_;
  std::unique_ptr<AdversarialRegularizer> reg_;
  std::unique_ptr<rl::PpoTrainer> trainer_;
};

/// Estimate the canonical initial victim state s₀^ν (mean of `n` resets,
/// projected through `slice`) — the default R-driven adversarial state.
std::vector<double> estimate_initial_state(const rl::Env& env,
                                           const RegularizerOptions& opts,
                                           int n, Rng& rng);

}  // namespace imap::core
