#include "attack/ppo_attacker.h"

namespace imap::attack {

PpoAttacker::PpoAttacker(const rl::Env& attack_env, rl::PpoOptions ppo,
                         Rng rng)
    : trainer_(std::make_unique<rl::PpoTrainer>(attack_env, ppo, rng)) {}

rl::PolicyHandle PpoAttacker::adversary() const {
  return rl::PolicyHandle::snapshot(trainer_->policy());
}

}  // namespace imap::attack
