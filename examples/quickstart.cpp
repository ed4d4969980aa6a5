// Quickstart: train a PPO victim on Hopper, then learn an IMAP-PC black-box
// adversarial policy against it and compare the victim's performance with
// and without the attack.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart [victim_steps] [attack_steps]

#include <algorithm>
#include <cstdlib>
#include <iostream>

#include "attack/random_attack.h"
#include "attack/threat_model.h"
#include "core/imap_trainer.h"
#include "core/zoo.h"
#include "defense/victim_trainer.h"
#include "env/registry.h"
#include "rl/evaluate.h"

using namespace imap;

int main(int argc, char** argv) {
  const long long victim_steps = argc > 1 ? std::atoll(argv[1]) : 150'000;
  const long long attack_steps = argc > 2 ? std::atoll(argv[2]) : 60'000;
  Rng rng(7);

  // 1. Train the victim with vanilla PPO on its own (dense) task reward.
  const auto env = env::make_env("Hopper");
  std::cout << "[1/3] training PPO victim on " << env->name() << " ("
            << victim_steps << " steps)...\n";
  auto victim_policy = defense::train_victim(
      *env, defense::DefenseKind::Vanilla, victim_steps, {}, rng.split(1));
  const auto victim = core::Zoo::as_policy(victim_policy);

  const double eps = env::spec("Hopper").epsilon;
  Rng eval_rng(17);
  const auto clean = attack::evaluate_attack(
      *env, victim, attack::make_null_attack(env->obs_dim()), eps, 50,
      eval_rng);
  std::cout << "      victim reward (no attack):  " << clean.returns.mean
            << " +/- " << clean.returns.stddev << "\n";

  // 2. Learn the IMAP-PC adversarial policy — black box: it sees only the
  //    environment state and the success indicator, never the victim's
  //    rewards, values or parameters.
  std::cout << "[2/3] training IMAP-PC adversary (eps=" << eps << ", "
            << attack_steps << " steps)...\n";
  core::ImapOptions opts;
  opts.reg.type = core::RegularizerType::PC;
  opts.bias_reduction = true;
  opts.surrogate_scale = env->max_steps();
  core::ImapTrainer attacker(*env, victim, eps, opts, rng.split(2));
  attacker.train(attack_steps);

  // 3. Evaluate the victim under attack.
  std::cout << "[3/3] evaluating the attack...\n";
  const auto attacked = attack::evaluate_attack(
      *env, victim, attacker.adversary(), eps, 50, eval_rng);
  std::cout << "      victim reward (IMAP-PC):    " << attacked.returns.mean
            << " +/- " << attacked.returns.stddev << "\n";
  std::cout << "      performance drop:           "
            << 100.0 * (1.0 - attacked.returns.mean /
                                  std::max(1.0, clean.returns.mean))
            << "%\n";
  return 0;
}
