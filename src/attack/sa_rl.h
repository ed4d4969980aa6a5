#pragma once

#include <memory>

#include "attack/threat_model.h"
#include "rl/ppo.h"

namespace imap::attack {

/// SA-RL (Zhang et al.): the optimal black-box state adversary learned by
/// plain PPO in the SA-MDP. This is the paper's single-agent baseline.
///
/// The original SA-RL trains on the victim's training-time reward r_E^ν —
/// a relaxation of the black-box model. As in the paper's experiments
/// (Sec. 6.2), our implementation uses the same surrogate −r̂_E^ν as IMAP so
/// the comparison is apples-to-apples; exploration is PPO's Gaussian
/// dithering and nothing else.
class SaRl {
 public:
  /// `relaxed` reproduces the ORIGINAL SA-RL threat model that trains on the
  /// victim's true (negated) training reward instead of the black-box
  /// surrogate — used only by the ablation bench. Network-backed victim
  /// handles additionally let the vectorized rollout engine batch the
  /// victim queries (rl::PolicyHandle converts implicitly from ActionFn).
  SaRl(const rl::Env& deploy_env, rl::PolicyHandle victim, double eps,
       rl::PpoOptions ppo, Rng rng, bool relaxed = false);

  /// Train against a pre-built attack-view env (e.g. a scenario::ScenarioEnv
  /// in Adversary mode). The env must already negate the victim's surrogate
  /// into the adversary's reward; the Rng goes straight to the PPO trainer,
  /// exactly as with the classic ctor above.
  SaRl(const rl::Env& attack_env, rl::PpoOptions ppo, Rng rng);

  rl::IterStats iterate() { return trainer_->iterate(); }
  std::vector<rl::IterStats> train(long long steps) {
    return trainer_->train(steps);
  }

  /// Frozen deterministic adversary (a snapshot of the mean policy) for
  /// evaluation.
  rl::PolicyHandle adversary() const;

  rl::PpoTrainer& trainer() { return *trainer_; }

  /// Attack state is exactly the PPO trainer's (the threat-model wrapper is
  /// rebuilt from ctor arguments; its inner env is replayed by the trainer).
  void save_state(ArchiveWriter& a) const { trainer_->save_state(a); }
  void load_state(const ArchiveReader& a) { trainer_->load_state(a); }
  bool snapshot(const std::string& path) const {
    return trainer_->snapshot(path);
  }
  bool restore(const std::string& path) { return trainer_->restore(path); }

 private:
  std::unique_ptr<rl::PpoTrainer> trainer_;
};

}  // namespace imap::attack
