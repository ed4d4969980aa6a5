#include "attack/ap_marl.h"

namespace imap::attack {

ApMarl::ApMarl(const env::MultiAgentEnv& game, rl::PolicyHandle victim,
               rl::PpoOptions ppo, Rng rng) {
  OpponentEnv attack_env(game, std::move(victim));
  trainer_ = std::make_unique<rl::PpoTrainer>(attack_env, ppo, rng);
}

rl::PolicyHandle ApMarl::adversary() const {
  return rl::PolicyHandle::snapshot(trainer_->policy());
}

}  // namespace imap::attack
