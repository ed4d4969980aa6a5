// Figure-1 scenario: attack a WocaR-hardened Walker2d victim and dump the
// posture trajectory under SA-RL vs IMAP-PC so the fall dynamics can be
// inspected (the paper's rendered frames become a CSV time series here).
//
// Usage: ./attack_robust_victim [env] [defense]
//   env ∈ {Hopper, Walker2d, HalfCheetah, Ant}, defense ∈ Table 1 rows.

#include <fstream>
#include <iostream>

#include "attack/ppo_attacker.h"
#include "attack/random_attack.h"
#include "common/config.h"
#include "core/imap_trainer.h"
#include "core/zoo.h"
#include "env/registry.h"
#include "rl/evaluate.h"
#include "scenario/scenario_env.h"

using namespace imap;

namespace {

void dump_trajectory(const std::string& path, const rl::Env& env,
                     const rl::PolicyHandle& attack) {
  Rng rng(101);
  const auto traj = rl::rollout_trajectory(env, attack, rng);
  std::ofstream f(path);
  f << "t,theta,omega,v\n";
  for (std::size_t t = 0; t < traj.size(); ++t)
    f << t << ',' << traj[t][0] << ',' << traj[t][1] << ',' << traj[t][2]
      << '\n';
  std::cout << "  trajectory written to " << path << " (" << traj.size() - 1
            << " steps — a fall shows as |theta| hitting the limit early)\n";
}

}  // namespace

int main(int argc, char** argv) {
  const std::string env_name = argc > 1 ? argv[1] : "Walker2d";
  const std::string defense = argc > 2 ? argv[2] : "WocaR";
  const auto cfg = BenchConfig::from_env();

  core::Zoo zoo(cfg.zoo_dir, cfg.scale, cfg.seed);
  // The paper's threat model: obs_perturb at the registry ε.
  const auto spec = scenario::with_default_threat(scenario::parse(env_name));

  std::cout << "Training (or loading) the " << defense << " victim on "
            << env_name << "...\n";
  const auto victim_policy = zoo.victim(env_name, defense);
  const auto victim = core::Zoo::as_policy(victim_policy);
  const scenario::ScenarioEnv attack_env(spec, victim,
                                         scenario::RewardMode::Adversary);
  const scenario::ScenarioEnv eval_env(spec, victim,
                                       scenario::RewardMode::VictimTrue);

  Rng rng(cfg.seed);
  Rng eval_rng(17);
  const int episodes = 40;
  const auto clean = rl::evaluate(
      eval_env, attack::make_null_attack(eval_env.act_dim()), episodes,
      eval_rng);
  std::cout << "No attack:  " << clean.returns.mean << " +/- "
            << clean.returns.stddev << "\n";

  const long long steps =
      std::max<long long>(8192, static_cast<long long>(120'000 * cfg.scale));

  std::cout << "Training SA-RL (baseline)...\n";
  attack::PpoAttacker sa_rl(attack_env, {}, rng.split(1));
  sa_rl.train(steps);
  const auto sa_eval =
      rl::evaluate(eval_env, sa_rl.adversary(), episodes, eval_rng);
  std::cout << "SA-RL:      " << sa_eval.returns.mean << " +/- "
            << sa_eval.returns.stddev << "\n";
  dump_trajectory("traj_sa_rl.csv", eval_env, sa_rl.adversary());

  std::cout << "Training IMAP-PC+BR (this paper)...\n";
  core::ImapOptions opts;
  opts.reg.type = core::RegularizerType::PC;
  opts.bias_reduction = true;
  opts.surrogate_scale = eval_env.max_steps();
  core::ImapTrainer imap(attack_env, opts, rng.split(2));
  imap.train(steps);
  const auto imap_eval =
      rl::evaluate(eval_env, imap.adversary(), episodes, eval_rng);
  std::cout << "IMAP-PC+BR: " << imap_eval.returns.mean << " +/- "
            << imap_eval.returns.stddev << "\n";
  dump_trajectory("traj_imap.csv", eval_env, imap.adversary());

  std::cout << "\nVictim drop: SA-RL "
            << 100.0 * (1.0 - sa_eval.returns.mean / clean.returns.mean)
            << "% vs IMAP "
            << 100.0 * (1.0 - imap_eval.returns.mean / clean.returns.mean)
            << "% (paper Fig. 1: IMAP finds falls that SA-RL misses on "
               "robust victims)\n";
  return 0;
}
