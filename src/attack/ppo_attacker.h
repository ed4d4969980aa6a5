#pragma once

#include <memory>

#include "rl/env.h"
#include "rl/ppo.h"

namespace imap::attack {

/// The plain-PPO adversarial-policy baselines: PPO with Gaussian dithering
/// and nothing else, over a given attack env whose reward is already the
/// adversary's. IMAP differs from them only by the adversarial intrinsic
/// regularizer and BR (Sec. 6.3.3).
///  * SA-RL (Zhang et al.), the single-agent baseline: a
///    scenario::ScenarioEnv in RewardMode::Adversary, i.e. the black-box
///    surrogate −r̂_E^ν that IMAP also trains on (Sec. 6.2), so the
///    comparison is apples-to-apples. RewardMode::AdversaryRelaxed is the
///    original SA-RL that trains on the victim's true reward.
///  * AP-MARL (Gleave et al.), the multi-agent baseline: an OpponentEnv with
///    the sparse win/lose reward.
class PpoAttacker {
 public:
  /// The Rng goes straight to the PPO trainer.
  PpoAttacker(const rl::Env& attack_env, rl::PpoOptions ppo, Rng rng);

  rl::IterStats iterate() { return trainer_->iterate(); }
  std::vector<rl::IterStats> train(long long steps) {
    return trainer_->train(steps);
  }

  /// Frozen deterministic adversary (a snapshot of the mean policy) for
  /// evaluation.
  rl::PolicyHandle adversary() const;

  rl::PpoTrainer& trainer() { return *trainer_; }

  /// Attack state is exactly the PPO trainer's (the attack env is rebuilt by
  /// the caller; its episodes are replayed by the trainer).
  void save_state(ArchiveWriter& a) const { trainer_->save_state(a); }
  void load_state(const ArchiveReader& a) { trainer_->load_state(a); }

 private:
  std::unique_ptr<rl::PpoTrainer> trainer_;
};

}  // namespace imap::attack
