#pragma once

#include <memory>

#include "attack/threat_model.h"
#include "rl/ppo.h"

namespace imap::attack {

/// AP-MARL (Gleave et al.): the multi-agent adversarial-policy baseline —
/// plain PPO on the adversary-side MDP with the sparse win/lose reward and
/// Gaussian dithering exploration. IMAP differs from this only by the
/// adversarial intrinsic regularizer and BR (Sec. 6.3.3).
class ApMarl {
 public:
  ApMarl(const env::MultiAgentEnv& game, rl::PolicyHandle victim,
         rl::PpoOptions ppo, Rng rng);

  rl::IterStats iterate() { return trainer_->iterate(); }
  std::vector<rl::IterStats> train(long long steps) {
    return trainer_->train(steps);
  }

  rl::PolicyHandle adversary() const;
  rl::PpoTrainer& trainer() { return *trainer_; }

  /// Attack state is exactly the PPO trainer's (the opponent-side wrapper is
  /// rebuilt from ctor arguments; its inner game is replayed by the trainer).
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
