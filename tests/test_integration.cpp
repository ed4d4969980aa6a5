// End-to-end integration tests: the full pipeline (victim training → threat
// model → attack learning → evaluation) at miniature budgets. These assert
// pipeline soundness, not paper-level attack quality — the bench binaries
// cover that at full scale.

#include <gtest/gtest.h>

#include <filesystem>

#include "attack/random_attack.h"
#include "attack/threat_model.h"
#include "core/experiment.h"
#include "core/imap_trainer.h"
#include "core/zoo.h"
#include "nn/checkpoint.h"
#include "defense/victim_trainer.h"
#include "env/registry.h"

namespace imap {
namespace {

TEST(Integration, VictimTrainingImprovesHopper) {
  const auto env = env::make_env("Hopper");
  Rng rng(7);

  defense::DefenseOptions opts;
  auto young = defense::train_victim(*env, defense::DefenseKind::Vanilla,
                                     4096, opts, rng.split(1));
  auto adult = defense::train_victim(*env, defense::DefenseKind::Vanilla,
                                     80'000, opts, rng.split(1));

  Rng e1(17), e2(17);
  const auto young_eval = attack::evaluate_attack(
      *env, core::Zoo::as_policy(young),
      attack::make_null_attack(env->obs_dim()), 0.075, 20, e1);
  const auto adult_eval = attack::evaluate_attack(
      *env, core::Zoo::as_policy(adult),
      attack::make_null_attack(env->obs_dim()), 0.075, 20, e2);
  EXPECT_GT(adult_eval.returns.mean, young_eval.returns.mean + 50.0);
}

TEST(Integration, ImapAttackBeatsNullOnTrainedVictim) {
  const auto env = env::make_env("Hopper");
  Rng rng(7);
  auto victim_policy = defense::train_victim(
      *env, defense::DefenseKind::Vanilla, 80'000, {}, rng.split(1));
  const auto victim = core::Zoo::as_policy(victim_policy);
  const double eps = env::spec("Hopper").epsilon;

  core::ImapOptions opts;
  opts.reg.type = core::RegularizerType::PC;
  opts.bias_reduction = true;
  opts.surrogate_scale = env->max_steps();
  core::ImapTrainer attacker(*env, victim, eps, opts, rng.split(2));
  attacker.train(60'000);

  Rng e1(23), e2(23);
  const auto clean = attack::evaluate_attack(
      *env, victim, attack::make_null_attack(env->obs_dim()), eps, 20, e1);
  const auto attacked = attack::evaluate_attack(
      *env, victim, attacker.adversary(), eps, 20, e2);
  // The learned attack must take a real bite out of the victim's reward
  // (full-scale attacks in the benches collapse it much further).
  EXPECT_LT(attacked.returns.mean, 0.95 * clean.returns.mean);
}

TEST(Integration, SparseTaskEndToEnd) {
  // FetchReach is the cheapest sparse task: victim reaches ≈ always, and a
  // short IMAP-PC run should already dent the success rate.
  BenchConfig cfg;
  cfg.zoo_dir = "/tmp/imap_test_integration_zoo";
  cfg.scale = 0.4;
  cfg.seed = 7;
  std::filesystem::remove_all(cfg.zoo_dir);
  core::ExperimentRunner runner(cfg);

  core::AttackPlan none;
  none.env_name = "FetchReach";
  none.attack = core::AttackKind::None;
  none.eval_episodes = 30;
  const auto clean = runner.run(none);
  EXPECT_GT(clean.victim_eval.success_rate, 0.5);

  core::AttackPlan imap = none;
  imap.attack = core::AttackKind::ImapPC;
  const auto attacked = runner.run(imap);
  EXPECT_LT(attacked.victim_eval.success_rate,
            clean.victim_eval.success_rate + 0.15);
  std::filesystem::remove_all(cfg.zoo_dir);
}

TEST(Integration, MultiAgentPipelineSmoke) {
  const auto game = env::make_multiagent_env("YouShallNotPass");
  Rng rng(7);
  env::VictimSideEnv tenv(*game, env::victim_training_pool("YouShallNotPass"));
  rl::PpoOptions ppo;
  ppo.steps_per_iter = 1024;
  rl::PpoTrainer victim_trainer(tenv, ppo, rng.split(1));
  victim_trainer.train(20'000);
  auto victim_policy = victim_trainer.policy();
  const auto victim = core::Zoo::as_policy(victim_policy);

  core::ImapOptions opts;
  opts.reg.type = core::RegularizerType::PC;
  opts.bias_reduction = true;
  opts.ppo.steps_per_iter = 1024;
  core::ImapTrainer attacker(*game, victim, opts, rng.split(2));
  attacker.train(8'192);

  Rng erng(29);
  const auto eval = attack::evaluate_opponent_attack(
      *game, victim, attacker.adversary(), 30, erng);
  EXPECT_GE(eval.success_rate, 0.0);
  EXPECT_LE(eval.success_rate, 1.0);
}

TEST(Integration, CheckpointedVictimBehavesIdentically) {
  const auto env = env::make_env("Walker2d");
  Rng rng(7);
  auto policy = defense::train_victim(*env, defense::DefenseKind::Vanilla,
                                      8192, {}, rng.split(1));
  const std::string path = "/tmp/imap_test_integration.pol";
  ASSERT_TRUE(nn::save_policy(path, policy));
  const auto loaded = nn::load_policy(path);
  ASSERT_TRUE(loaded.has_value());

  Rng e1(31), e2(31);
  const auto a = attack::evaluate_attack(
      *env, core::Zoo::as_policy(policy),
      attack::make_null_attack(env->obs_dim()), 0.05, 5, e1);
  const auto b = attack::evaluate_attack(
      *env, core::Zoo::as_policy(*loaded),
      attack::make_null_attack(env->obs_dim()), 0.05, 5, e2);
  EXPECT_DOUBLE_EQ(a.returns.mean, b.returns.mean);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace imap
