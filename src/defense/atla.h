#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/serialize.h"
#include "nn/gaussian.h"
#include "rl/env.h"
#include "rl/policy_handle.h"
#include "rl/ppo.h"

namespace imap::defense {

/// The victim's side of adversarial training: an env whose observations are
/// corrupted by a FIXED adversary (the converse of the threat-model
/// scenario::ScenarioEnv, where the adversary is the agent).
///
/// Two adversary forms:
///  * a frozen rl::PolicyHandle (ATLA rounds: the RL adversary of the round);
///  * uniform ε-ball noise (the robust-regularizer defenses). The noise
///    stream is owned per clone and reseeded from the reset Rng, so every
///    clone is self-contained and an episode replays exactly from its
///    pre-reset Rng state — the property checkpoint restore relies on.
class PerturbedVictimEnv : public rl::EnvBase<PerturbedVictimEnv> {
 public:
  PerturbedVictimEnv(const rl::Env& inner, rl::PolicyHandle adversary,
                     double eps);
  /// Uniform-noise mode: obs += eps·U[-1,1]^d.
  PerturbedVictimEnv(const rl::Env& inner, double eps);
  PerturbedVictimEnv(const PerturbedVictimEnv& other);
  PerturbedVictimEnv& operator=(const PerturbedVictimEnv&) = delete;

  std::size_t obs_dim() const override { return inner_->obs_dim(); }
  std::size_t act_dim() const override { return inner_->act_dim(); }
  int max_steps() const override { return inner_->max_steps(); }
  std::string name() const override { return inner_->name() + "+Perturbed"; }
  const rl::BoxSpace& action_space() const override {
    return inner_->action_space();
  }

  std::vector<double> reset(Rng& rng) override;
  rl::StepResult step(const std::vector<double>& action) override;

 private:
  std::vector<double> perturb(const std::vector<double>& obs);

  std::unique_ptr<rl::Env> inner_;
  rl::PolicyHandle adversary_;
  nn::Mlp::Workspace ws_;  ///< adversary queries (per clone)
  double eps_;
  bool noise_mode_ = false;
  Rng noise_rng_{0};  ///< noise mode only; reseeded at every reset
};

/// ATLA (Zhang et al. 2021) as a resumable state machine: alternately train
/// the victim and an RL state adversary with independent networks. Round 0
/// is the unattacked warm-up; each later round trains a fresh SA-RL
/// adversary against the frozen victim, then continues the victim under that
/// adversary's perturbations. `with_sa` adds the SA smoothness regularizer
/// to the victim's updates (= ATLA-SA; the original's LSTM policy is
/// replaced by an MLP — see DESIGN.md).
///
/// Snapshots are taken at round boundaries: restoring into an AtlaTrainer
/// built with identical constructor arguments and running the remaining
/// rounds is bit-identical to never having stopped.
class AtlaTrainer {
 public:
  AtlaTrainer(const rl::Env& training_env, bool with_sa, long long steps,
              double eps, double reg_coef, rl::PpoOptions ppo, int rounds,
              double adversary_fraction, Rng rng);

  int rounds() const { return rounds_; }
  int rounds_done() const { return round_; }
  bool done() const { return round_ >= rounds_; }

  /// Run the next alternation round; returns the victim's iteration stats.
  std::vector<rl::IterStats> run_round();

  nn::GaussianPolicy policy() const { return victim_.policy(); }
  rl::PpoTrainer& victim() { return victim_; }
  const rl::PpoTrainer& victim() const { return victim_; }

  /// Round counter, last completed round's adversary and the full victim
  /// trainer state (plus the SA hook's Rng when with_sa).
  void save_state(ArchiveWriter& a) const;
  void load_state(const ArchiveReader& a);
  bool snapshot(const std::string& path) const;
  bool restore(const std::string& path);

 private:
  void enter_round_env();

  std::unique_ptr<rl::Env> training_env_;
  bool with_sa_;
  double eps_;
  rl::PpoOptions ppo_;
  int rounds_;
  long long victim_per_round_ = 0;
  long long adv_per_round_ = 0;
  Rng rng_;
  std::shared_ptr<Rng> hook_rng_;  ///< SA hook stream (ATLA-SA only)
  int round_ = 0;                  ///< completed rounds
  std::unique_ptr<nn::GaussianPolicy> round_adversary_;
  rl::PpoTrainer victim_;
};

/// One-shot convenience wrapper over AtlaTrainer.
nn::GaussianPolicy train_victim_atla(const rl::Env& training_env,
                                     bool with_sa, long long steps,
                                     double eps, double reg_coef,
                                     rl::PpoOptions ppo, int rounds,
                                     double adversary_fraction, Rng rng);

}  // namespace imap::defense
