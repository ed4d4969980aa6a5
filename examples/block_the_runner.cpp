// Figure-2 scenario: learn an adversarial blocker for YouShallNotPass with
// AP-MARL (baseline) and IMAP-PC+BR, report both ASR curves, and dump one
// episode's (runner, blocker) positions so the learned blocking behaviour
// can be inspected.

#include <fstream>
#include <iostream>

#include "attack/ppo_attacker.h"
#include "attack/threat_model.h"
#include "common/config.h"
#include "core/imap_trainer.h"
#include "core/zoo.h"
#include "env/registry.h"
#include "env/you_shall_not_pass.h"

using namespace imap;

namespace {

void dump_episode(const std::string& path, const env::MultiAgentEnv& proto,
                  const rl::PolicyHandle& victim,
                  const rl::PolicyHandle& adversary) {
  auto game = proto.clone();
  nn::Mlp::Workspace ws_v, ws_a;  // one per network queried each step
  Rng rng(202);
  auto [obs_v, obs_a] = game->reset(rng);
  std::ofstream f(path);
  f << "t,runner_x,runner_y,blocker_x,blocker_y\n";
  for (int t = 0; t < 150; ++t) {
    // Joint-state layout of the adversary obs: runner pos (0,1)·scale,
    // blocker pos (4,5)·scale.
    f << t << ',' << obs_a[0] * 5.0 << ',' << obs_a[1] * 3.0 << ','
      << obs_a[4] * 5.0 << ',' << obs_a[5] * 3.0 << '\n';
    const auto ma = game->step(
        proto.victim_action_space().clamp(victim.query(obs_v, ws_v)),
        proto.adversary_action_space().clamp(adversary.query(obs_a, ws_a)));
    obs_v = ma.obs_v;
    obs_a = ma.obs_a;
    if (ma.done || ma.truncated) break;
  }
  std::cout << "  episode dumped to " << path << "\n";
}

}  // namespace

int main() {
  const auto cfg = BenchConfig::from_env();
  core::Zoo zoo(cfg.zoo_dir, cfg.scale, cfg.seed);
  const auto game = env::make_multiagent_env("YouShallNotPass");

  std::cout << "Training (or loading) the runner victim...\n";
  const auto victim_policy = zoo.victim("YouShallNotPass");
  const auto victim = core::Zoo::as_policy(victim_policy);
  const attack::OpponentEnv attack_env(*game, victim);

  Rng rng(cfg.seed);
  Rng eval_rng(17);
  const long long steps =
      std::max<long long>(8192, static_cast<long long>(120'000 * cfg.scale));
  const int episodes = 100;

  std::cout << "Training AP-MARL blocker (baseline, dithering "
               "exploration)...\n";
  attack::PpoAttacker ap_marl(attack_env, {}, rng.split(1));
  ap_marl.train(steps);
  const auto ap_eval =
      rl::evaluate(attack_env, ap_marl.adversary(), episodes, eval_rng);
  std::cout << "AP-MARL ASR:    " << 100.0 * (1.0 - ap_eval.success_rate)
            << "%\n";
  dump_episode("episode_ap_marl.csv", *game, victim, ap_marl.adversary());

  std::cout << "Training IMAP-PC+BR blocker (coverage-driven "
               "exploration)...\n";
  core::ImapOptions opts;
  opts.reg.type = core::RegularizerType::PC;
  opts.bias_reduction = true;
  core::ImapTrainer imap(attack_env, core::with_game_marginals(opts, *game),
                         rng.split(2));
  imap.train(steps);
  const auto imap_eval =
      rl::evaluate(attack_env, imap.adversary(), episodes, eval_rng);
  std::cout << "IMAP-PC+BR ASR: " << 100.0 * (1.0 - imap_eval.success_rate)
            << "%\n";
  dump_episode("episode_imap.csv", *game, victim, imap.adversary());

  std::cout << "\n(paper Fig. 2 / Sec. 6.3.3: AP-MARL's blocker degenerates "
               "while IMAP-PC learns genuine interception — compare the "
               "blocker tracks in the two CSVs)\n";
  return 0;
}
