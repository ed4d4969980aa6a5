#include "attack/sa_rl.h"

namespace imap::attack {

SaRl::SaRl(const rl::Env& deploy_env, rl::PolicyHandle victim, double eps,
           rl::PpoOptions ppo, Rng rng, bool relaxed) {
  StatePerturbationEnv attack_env(
      deploy_env, std::move(victim), eps,
      relaxed ? RewardMode::AdversaryRelaxed : RewardMode::Adversary);
  trainer_ = std::make_unique<rl::PpoTrainer>(attack_env, ppo, rng);
}

SaRl::SaRl(const rl::Env& attack_env, rl::PpoOptions ppo, Rng rng) {
  trainer_ = std::make_unique<rl::PpoTrainer>(attack_env, ppo, rng);
}

rl::PolicyHandle SaRl::adversary() const {
  return rl::PolicyHandle::snapshot(trainer_->policy());
}

}  // namespace imap::attack
