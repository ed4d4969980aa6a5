#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <utility>

#include "common/check.h"
#include "common/serialize.h"
#include "core/experiment.h"
#include "core/experiment_dag.h"
#include "temp_dir.h"

namespace imap::core {
namespace {

class ExperimentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cfg_.zoo_dir = imap::testing::unique_temp_dir("imap_test_exp");
    cfg_.scale = 0.01;  // smoke-scale budgets
    cfg_.seed = 7;
    std::filesystem::remove_all(cfg_.zoo_dir);
  }
  void TearDown() override { std::filesystem::remove_all(cfg_.zoo_dir); }
  BenchConfig cfg_;
};

TEST(AttackKindNames, RoundTripAndClassification) {
  EXPECT_EQ(to_string(AttackKind::SaRl), "SA-RL");
  EXPECT_EQ(to_string(AttackKind::ImapPC), "IMAP-PC");
  EXPECT_TRUE(is_imap(AttackKind::ImapR));
  EXPECT_FALSE(is_imap(AttackKind::Random));
  EXPECT_EQ(imap_attacks().size(), 4u);
  EXPECT_EQ(regularizer_of(AttackKind::ImapD), RegularizerType::D);
  EXPECT_THROW(regularizer_of(AttackKind::SaRl), CheckError);
}

AttackOutcome sample_outcome() {
  AttackOutcome out;
  out.victim_eval.returns.mean = 1.5;
  out.victim_eval.returns.stddev = 0.25;
  out.victim_eval.returns.episodes = 3;
  out.victim_eval.success_rate = 0.5;
  out.victim_eval.mean_length = 100.0;
  out.victim_eval.episode_returns = {1.0, 2.0, 1.5};
  out.curve = {{2048, 0.75, 1.0}, {4096, 0.5, 0.9}};
  return out;
}

TEST(ResultCodec, KeepsTheResultCacheLayout) {
  // The result-cache layout, field by field: results written before the
  // codec was shared must still load, with no format-version bump.
  const AttackOutcome out = sample_outcome();
  BinaryWriter legacy;
  legacy.write_f64(1.5);
  legacy.write_f64(0.25);
  legacy.write_u64(3);
  legacy.write_f64(0.5);
  legacy.write_f64(100.0);
  legacy.write_vec({1.0, 2.0, 1.5});
  legacy.write_u64(2);
  for (const auto& p : out.curve) {
    legacy.write_i64(p.steps);
    legacy.write_f64(p.victim_success);
    legacy.write_f64(p.tau);
  }
  BinaryWriter w;
  write_results(w, out);
  EXPECT_EQ(w.buffer(), legacy.buffer());

  BinaryReader r(w.buffer());
  AttackOutcome back;
  read_results(r, back);
  EXPECT_TRUE(identical_results(out, back));
}

TEST(ResultCodec, IdenticalResultsIsBitwise) {
  const AttackOutcome out = sample_outcome();
  EXPECT_TRUE(identical_results(out, out));

  // Swapped episode returns keep every sum and mean the same.
  AttackOutcome swapped = out;
  std::swap(swapped.victim_eval.episode_returns[0],
            swapped.victim_eval.episode_returns[1]);
  EXPECT_FALSE(identical_results(out, swapped));

  AttackOutcome ulp = out;
  ulp.curve[1].tau = std::nextafter(ulp.curve[1].tau, 2.0);
  EXPECT_FALSE(identical_results(out, ulp));

  AttackOutcome halted = out;
  halted.completed = false;
  EXPECT_FALSE(identical_results(out, halted));
}

TEST_F(ExperimentTest, NoAttackProducesCleanEvaluation) {
  ExperimentRunner runner(cfg_);
  AttackPlan plan;
  plan.env_name = "FetchReach";
  plan.attack = AttackKind::None;
  plan.eval_episodes = 10;
  const auto out = runner.run(plan);
  EXPECT_EQ(out.victim_eval.episode_returns.size(), 10u);
  EXPECT_TRUE(out.curve.empty());
}

TEST_F(ExperimentTest, ImapAttackProducesCurve) {
  ExperimentRunner runner(cfg_);
  AttackPlan plan;
  plan.env_name = "FetchReach";
  plan.attack = AttackKind::ImapPC;
  plan.attack_steps = 4096;
  plan.eval_episodes = 5;
  const auto out = runner.run(plan);
  EXPECT_FALSE(out.curve.empty());
  EXPECT_EQ(out.curve.back().steps, 4096);
}

TEST_F(ExperimentTest, ResultsAreCachedOnDisk) {
  ExperimentRunner runner(cfg_);
  AttackPlan plan;
  plan.env_name = "FetchReach";
  plan.attack = AttackKind::SaRl;
  plan.attack_steps = 4096;
  plan.eval_episodes = 5;
  const auto first = runner.run(plan);
  ASSERT_TRUE(std::filesystem::exists(cfg_.zoo_dir + "/results"));

  // A fresh runner must serve the identical result from the cache.
  ExperimentRunner runner2(cfg_);
  const auto second = runner2.run(plan);
  EXPECT_DOUBLE_EQ(second.victim_eval.returns.mean,
                   first.victim_eval.returns.mean);
  EXPECT_EQ(second.curve.size(), first.curve.size());
  EXPECT_EQ(second.victim_eval.episode_returns,
            first.victim_eval.episode_returns);
}

TEST_F(ExperimentTest, CacheKeySeparatesPlans) {
  ExperimentRunner runner(cfg_);
  AttackPlan a, b;
  a.env_name = b.env_name = "FetchReach";
  a.attack = b.attack = AttackKind::ImapPC;
  b.bias_reduction = true;
  EXPECT_NE(runner.cache_key(a, 1000, 10), runner.cache_key(b, 1000, 10));
  AttackPlan c = a;
  c.eta = 2.0;
  EXPECT_NE(runner.cache_key(a, 1000, 10), runner.cache_key(c, 1000, 10));
  EXPECT_NE(runner.cache_key(a, 1000, 10), runner.cache_key(a, 2000, 10));
}

TEST_F(ExperimentTest, DefaultBudgetsScaleAndFloor) {
  ExperimentRunner runner(cfg_);
  EXPECT_GE(runner.default_attack_steps("Hopper"), 4096);
  EXPECT_GE(runner.default_eval_episodes("Hopper"), 10);
  BenchConfig big = cfg_;
  big.scale = 1.0;
  ExperimentRunner full(big);
  EXPECT_GT(full.default_attack_steps("Hopper"),
            runner.default_attack_steps("Hopper"));
}

TEST_F(ExperimentTest, TrivialScenarioKeepsBaselineCacheKeys) {
  ExperimentRunner runner(cfg_);
  AttackPlan base;
  base.env_name = "FetchReach";
  base.attack = AttackKind::ImapPC;
  // Spelling the baseline as a trivial scenario (any casing) must normalize
  // to the exact legacy plan — same cache key, same rng stream, same cell.
  AttackPlan scn;
  scn.scenario = "fetchreach";
  scn.attack = AttackKind::ImapPC;
  const auto norm = runner.normalize_plan(scn);
  EXPECT_EQ(norm.env_name, "FetchReach");
  EXPECT_TRUE(norm.scenario.empty());
  EXPECT_EQ(runner.cache_key(norm, 1000, 10), runner.cache_key(base, 1000, 10));
}

TEST_F(ExperimentTest, ScenarioPlansGetDistinctKeysAndExplicitThreat) {
  ExperimentRunner runner(cfg_);
  AttackPlan base;
  base.env_name = "FetchReach";
  base.attack = AttackKind::SaRl;
  // A channel scenario is a different cell than the baseline...
  AttackPlan scn;
  scn.scenario = "fetchreach+obs_delay:2";
  scn.attack = AttackKind::SaRl;
  const auto norm = runner.normalize_plan(scn);
  // ...and the implicit attack channel becomes explicit in its identity.
  EXPECT_EQ(norm.scenario, "FetchReach+obs_perturb:0.1+obs_delay:2");
  EXPECT_EQ(norm.env_name, "FetchReach");
  EXPECT_NE(runner.cache_key(norm, 1000, 10), runner.cache_key(base, 1000, 10));
  // Equal scenarios, however spelled, share a key.
  AttackPlan respelled;
  respelled.scenario = "FETCHREACH+obs_delay:2+obs_perturb:0.1";
  respelled.attack = AttackKind::SaRl;
  EXPECT_EQ(runner.cache_key(runner.normalize_plan(respelled), 1000, 10),
            runner.cache_key(norm, 1000, 10));
}

TEST_F(ExperimentTest, ScenarioAttackRunsAndCaches) {
  ExperimentRunner runner(cfg_);
  AttackPlan plan;
  plan.scenario = "fetchreach+obs_perturb:0.1+dr[budget:0.5..1]+budget:0.4@5";
  plan.attack = AttackKind::SaRl;
  plan.attack_steps = 4096;
  plan.eval_episodes = 5;
  const auto out = runner.run(plan);
  EXPECT_FALSE(out.curve.empty());
  EXPECT_EQ(out.victim_eval.episode_returns.size(), 5u);

  // Warm re-run from a fresh runner: identical bits from the result cache.
  ExperimentRunner runner2(cfg_);
  const auto again = runner2.run(plan);
  EXPECT_EQ(again.victim_eval.episode_returns,
            out.victim_eval.episode_returns);
  EXPECT_EQ(again.curve.size(), out.curve.size());
}

TEST_F(ExperimentTest, ScenarioNoAttackEvaluatesThroughChannels) {
  ExperimentRunner runner(cfg_);
  AttackPlan plan;
  plan.scenario = "hopper+obs_noise:0.2@3";
  plan.attack = AttackKind::None;
  plan.eval_episodes = 10;
  const auto noisy = runner.run(plan);
  EXPECT_EQ(noisy.victim_eval.episode_returns.size(), 10u);
  EXPECT_TRUE(noisy.curve.empty());

  AttackPlan clean;
  clean.env_name = "Hopper";
  clean.attack = AttackKind::None;
  clean.eval_episodes = 10;
  const auto base = runner.run(clean);
  // The noise channel actually reaches the victim: different episodes.
  EXPECT_NE(noisy.victim_eval.episode_returns,
            base.victim_eval.episode_returns);
}

TEST_F(ExperimentTest, MultiAgentPlanRoutesToOpponentAttack) {
  ExperimentRunner runner(cfg_);
  AttackPlan plan;
  plan.env_name = "YouShallNotPass";
  plan.attack = AttackKind::ApMarl;
  plan.attack_steps = 4096;
  plan.eval_episodes = 10;
  const auto out = runner.run(plan);
  EXPECT_GE(out.asr(), 0.0);
  EXPECT_LE(out.asr(), 1.0);
  EXPECT_FALSE(out.curve.empty());
}

TEST_F(ExperimentTest, InvalidTaskAttackPairsFailBeforeAnyVictimTrains) {
  // The accept side of the task × attack matrix: IMAP everywhere, AP-MARL
  // only on games, the single-agent attacks only off them.
  const AttackKind all[] = {AttackKind::None,   AttackKind::Random,
                            AttackKind::SaRl,   AttackKind::ApMarl,
                            AttackKind::ImapSC, AttackKind::ImapPC,
                            AttackKind::ImapR,  AttackKind::ImapD};
  for (const auto kind : all) {
    SCOPED_TRACE(to_string(kind));
    EXPECT_EQ(attack_supported("Hopper", kind), kind != AttackKind::ApMarl);
    EXPECT_EQ(attack_supported("YouShallNotPass", kind),
              is_imap(kind) || kind == AttackKind::ApMarl);
  }

  // The reject side fails in normalize_plan, which run() and the DAG
  // builder apply before any victim trains.
  struct Case {
    const char* env_name;
    const char* scenario;
    AttackKind attack;
  };
  const Case rejected[] = {
      {"Hopper", "", AttackKind::ApMarl},
      {"", "hopper+obs_delay:2", AttackKind::ApMarl},
      {"YouShallNotPass", "", AttackKind::None},
      {"YouShallNotPass", "", AttackKind::Random},
      {"YouShallNotPass", "", AttackKind::SaRl},
      {"", "youshallnotpass", AttackKind::SaRl},
  };
  ExperimentRunner runner(cfg_);
  for (const auto& c : rejected) {
    SCOPED_TRACE(std::string(c.env_name) + c.scenario + " × " +
                 to_string(c.attack));
    AttackPlan plan;
    plan.env_name = c.env_name;
    plan.scenario = c.scenario;
    plan.attack = c.attack;
    plan.attack_steps = 4096;
    plan.eval_episodes = 5;
    EXPECT_THROW(runner.normalize_plan(plan), CheckError);
    EXPECT_THROW(runner.run(plan), CheckError);
    EXPECT_THROW(DagScheduler(cfg_).run({plan}), CheckError);
  }
  // No victim checkpoint (or victim snapshot) was written.
  if (std::filesystem::exists(cfg_.zoo_dir))
    for (const auto& e :
         std::filesystem::recursive_directory_iterator(cfg_.zoo_dir)) {
      EXPECT_NE(e.path().extension(), ".pol") << e.path();
      EXPECT_NE(e.path().extension(), ".snap") << e.path();
    }
}

}  // namespace
}  // namespace imap::core
