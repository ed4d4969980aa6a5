#include <gtest/gtest.h>

#include <cmath>

#include "attack/ppo_attacker.h"
#include "attack/random_attack.h"
#include "attack/threat_model.h"
#include "env/hopper.h"
#include "env/you_shall_not_pass.h"
#include "scenario/scenario_env.h"

namespace imap::attack {
namespace {

// Frozen "victim" used by wrapper tests: posture-feedback runner.
rl::ActionFn feedback_victim() {
  return [](const std::vector<double>& obs) {
    const auto p = env::hopper_params();
    std::vector<double> u(p.n_joints);
    for (std::size_t j = 0; j < p.n_joints; ++j)
      u[j] = 0.3 * p.c[j] - 3.0 * (obs[0] + 0.4 * obs[1]) * p.d[j];
    return u;
  };
}

using scenario::RewardMode;
using scenario::ScenarioEnv;

// The StatePerturbationEnv suites test the single-agent threat model of
// Sec. 4.3: a ScenarioEnv over a given inner env whose one channel is
// obs_perturb:eps.
ScenarioEnv state_perturbation_env(const rl::Env& inner,
                                   rl::PolicyHandle victim, double eps,
                                   RewardMode mode) {
  return ScenarioEnv(inner, scenario::state_perturbation(inner.name(), eps),
                     std::move(victim), mode);
}

TEST(StatePerturbationEnv, AgentIsTheAdversary) {
  const auto inner = env::make_hopper();
  auto env = state_perturbation_env(*inner, feedback_victim(), 0.075,
                                    RewardMode::Adversary);
  EXPECT_EQ(env.obs_dim(), inner->obs_dim());
  EXPECT_EQ(env.act_dim(), inner->obs_dim());  // perturbation per obs dim
  EXPECT_DOUBLE_EQ(env.epsilon(), 0.075);
}

TEST(StatePerturbationEnv, AdversaryRewardIsNegativeSurrogate) {
  const auto inner = env::make_hopper();
  auto env = state_perturbation_env(*inner, feedback_victim(), 0.075,
                                    RewardMode::Adversary);
  Rng rng(3);
  env.reset(rng);
  const std::vector<double> zero(env.act_dim(), 0.0);
  for (int i = 0; i < 50; ++i) {
    const auto sr = env.step(zero);
    EXPECT_LE(sr.reward, 0.0);
    EXPECT_GE(sr.reward, -1.0);
    EXPECT_NEAR(sr.reward, -sr.surrogate, 1e-12);
    if (sr.done || sr.truncated) break;
  }
}

TEST(StatePerturbationEnv, VictimTrueModeKeepsTaskReward) {
  const auto inner = env::make_hopper();
  auto adv_env = state_perturbation_env(*inner, feedback_victim(), 0.0,
                                        RewardMode::Adversary);
  auto true_env = state_perturbation_env(*inner, feedback_victim(), 0.0,
                                         RewardMode::VictimTrue);
  Rng r1(5), r2(5);
  adv_env.reset(r1);
  true_env.reset(r2);
  const std::vector<double> zero(adv_env.act_dim(), 0.0);
  const auto sa = adv_env.step(zero);
  const auto st = true_env.step(zero);
  EXPECT_EQ(sa.obs, st.obs);          // identical dynamics
  EXPECT_NE(sa.reward, st.reward);    // different reporting
  EXPECT_GT(st.reward, 0.0);          // alive bonus flows through
}

TEST(StatePerturbationEnv, ZeroEpsilonIsNoAttack) {
  const auto inner = env::make_hopper();
  // With ε = 0 even a saturated adversary changes nothing.
  auto env = state_perturbation_env(*inner, feedback_victim(), 0.0,
                                    RewardMode::VictimTrue);
  auto plain = inner->clone();
  Rng r1(7), r2(7);
  env.reset(r1);
  const auto obs0 = plain->reset(r2);
  const std::vector<double> ones(env.act_dim(), 1.0);
  const auto s1 = env.step(ones);
  const auto s2 = plain->step(
      plain->action_space().clamp(feedback_victim()(obs0)));
  EXPECT_EQ(s1.obs, s2.obs);
}

TEST(StatePerturbationEnv, PerturbationIsLinfBounded) {
  // The victim records what it sees; the worst adversary action must move
  // each coordinate by exactly ±ε.
  const auto inner = env::make_hopper();
  std::vector<double> seen;
  rl::ActionFn recorder = [&seen](const std::vector<double>& o) {
    seen = o;
    return std::vector<double>(3, 0.0);
  };
  const double eps = 0.075;
  auto env =
      state_perturbation_env(*inner, recorder, eps, RewardMode::Adversary);
  Rng rng(3);
  const auto true_obs = env.reset(rng);
  std::vector<double> dir(env.act_dim());
  for (std::size_t i = 0; i < dir.size(); ++i) dir[i] = i % 2 ? 5.0 : -5.0;
  env.step(dir);  // out-of-box action must be clamped to the ε-ball
  ASSERT_EQ(seen.size(), true_obs.size());
  for (std::size_t i = 0; i < seen.size(); ++i)
    EXPECT_NEAR(std::abs(seen[i] - true_obs[i]), eps, 1e-12);
}

TEST(OpponentEnv, ReducesGameToAdversaryMdp) {
  const auto game = env::make_you_shall_not_pass();
  // Victim: sprint left.
  rl::ActionFn victim = [](const std::vector<double>&) {
    return std::vector<double>{-1.0, 0.0};
  };
  OpponentEnv env(*game, victim);
  EXPECT_EQ(env.obs_dim(), game->adversary_obs_dim());
  EXPECT_EQ(env.act_dim(), game->adversary_act_dim());
  Rng rng(3);
  env.reset(rng);
  double final_reward = 0.0;
  bool over = false;
  for (int i = 0; i < 200 && !over; ++i) {
    const auto sr = env.step({0.0, 0.0});  // idle blocker
    over = sr.done || sr.truncated;
    final_reward = sr.reward;
    if (!over) {
      EXPECT_DOUBLE_EQ(sr.reward, 0.0);  // sparse win/lose signal
    }
  }
  ASSERT_TRUE(over);
  EXPECT_DOUBLE_EQ(final_reward, -1.0);  // victim crossed ⇒ J_AP penalty
}

TEST(OpponentEnv, ExposesMarginalRanges) {
  const auto game = env::make_you_shall_not_pass();
  OpponentEnv env(*game, rl::ActionFn([](const std::vector<double>&) {
    return std::vector<double>{0.0, 0.0};
  }));
  EXPECT_EQ(env.victim_obs_range(), game->victim_obs_range());
  EXPECT_EQ(env.adversary_obs_range(), game->adversary_obs_range());
}

TEST(RandomAttack, BoundedAndStochastic) {
  auto attack = make_random_attack(5, Rng(3));
  const auto a1 = attack({});
  const auto a2 = attack({});
  ASSERT_EQ(a1.size(), 5u);
  EXPECT_NE(a1, a2);
  for (const double x : a1) {
    EXPECT_GE(x, -1.0);
    EXPECT_LE(x, 1.0);
  }
}

TEST(NullAttack, AllZero) {
  auto attack = make_null_attack(4);
  for (const double x : attack({}))
    EXPECT_DOUBLE_EQ(x, 0.0);
}

TEST(EvaluateAttack, NullAttackMatchesCleanEvaluation) {
  const auto inner = env::make_hopper();
  Rng r1(9), r2(9);
  const auto clean = evaluate_attack(*inner, feedback_victim(),
                                     make_null_attack(inner->obs_dim()),
                                     0.075, 10, r1);
  const auto clean2 = evaluate_attack(*inner, feedback_victim(),
                                      make_null_attack(inner->obs_dim()),
                                      0.075, 10, r2);
  EXPECT_DOUBLE_EQ(clean.returns.mean, clean2.returns.mean);  // deterministic
  EXPECT_GT(clean.returns.mean, 200.0);  // the controller survives & runs
}

TEST(SaRl, TrainsOnAdversaryRewardAndExportsFrozenPolicy) {
  const auto inner = env::make_hopper();
  rl::PpoOptions ppo;
  ppo.steps_per_iter = 512;
  PpoAttacker attacker(
      state_perturbation_env(*inner, feedback_victim(), 0.075,
                             RewardMode::Adversary),
      ppo, Rng(5));
  const auto stats = attacker.train(2048);
  EXPECT_GE(stats.size(), 4u);
  const auto adv = attacker.adversary();
  Rng rng(3);
  const auto obs = inner->reset(rng);
  const auto a = adv.query(obs);
  EXPECT_EQ(a.size(), inner->obs_dim());
  // Frozen snapshot: identical output on identical input.
  EXPECT_EQ(adv.query(obs), a);
}

TEST(ApMarl, TrainsOnGame) {
  const auto game = env::make_you_shall_not_pass();
  rl::PpoOptions ppo;
  ppo.steps_per_iter = 512;
  PpoAttacker attacker(
      OpponentEnv(*game, rl::ActionFn([](const std::vector<double>&) {
        return std::vector<double>{-1.0, 0.0};
      })),
      ppo, Rng(5));
  const auto stats = attacker.train(1024);
  EXPECT_GE(stats.size(), 2u);
  const auto adv = attacker.adversary();
  EXPECT_EQ(adv.query(std::vector<double>(11, 0.0)).size(), 2u);
}

}  // namespace
}  // namespace imap::attack
