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

/// The multi-agent regularizer marginals (Eq. 7 / Eq. 9): unless `opts`
/// already names a victim slice, Π_{S^ν}/Π_{S^α} become the game's
/// joint-state projections of the adversary observation.
ImapOptions with_game_marginals(ImapOptions opts,
                                const env::MultiAgentEnv& game);

/// IMAP: Intrinsically Motivated Adversarial Policy learning — the paper's
/// core contribution. A PPO adversary over the black-box threat-model MDP,
/// augmented with an adversarial intrinsic regularizer (SC/PC/R/D) entering
/// as a second advantage stream Â_E + τ_k·Â_I (Eq. 14), with τ_k scheduled
/// by Bias-Reduction (Eq. 15–17) when enabled.
class ImapTrainer {
 public:
  /// IMAP over a given attack env: a scenario::ScenarioEnv in
  /// RewardMode::Adversary for single-agent tasks, an attack::OpponentEnv
  /// for games (pass the game's marginals through with_game_marginals).
  /// If the R regularizer is selected and no risk_target is set, s₀^ν is
  /// estimated from 16 resets of the attack env. Rng splits: 0x5eed for
  /// that estimate, 0x4e67 for the regularizer, 1 for the PPO trainer.
  ImapTrainer(const rl::Env& attack_env, ImapOptions opts, Rng rng);

  // Forwarders onto the constructor above. The traced cell in
  // e2ebench/cpp/cell.cpp compiles against them; ROADMAP item 5(a) deletes
  // them together with that cell (see also attack/threat_model.h).
  ImapTrainer(const rl::Env& deploy_env, rl::PolicyHandle victim, double eps,
              ImapOptions opts, Rng rng)
      : ImapTrainer(attack::StatePerturbationEnv(deploy_env, std::move(victim),
                                                 eps,
                                                 attack::RewardMode::Adversary),
                    std::move(opts), rng) {}
  ImapTrainer(const env::MultiAgentEnv& game, rl::PolicyHandle victim,
              ImapOptions opts, Rng rng)
      : ImapTrainer(attack::OpponentEnv(game, std::move(victim)),
                    with_game_marginals(std::move(opts), game), rng) {}

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

 private:
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
