#include <gtest/gtest.h>

#include <cmath>

#include "attack/gradient_attack.h"
#include "common/check.h"
#include "attack/random_attack.h"
#include "attack/sa_rl.h"
#include "attack/threat_model.h"
#include "env/hopper.h"

namespace imap::attack {
namespace {

nn::GaussianPolicy make_victim_net(Rng& rng) {
  nn::GaussianPolicy pi(11, 3, {16}, rng);
  // Give the network real sensitivity (fresh policy heads are ≈ 0).
  for (auto& w : pi.net().params()) w *= 3.0;
  return pi;
}

TEST(GradientAttack, DirectionIsBoundedAndDeterministic) {
  Rng rng(3);
  const auto victim = make_victim_net(rng);
  const auto attack = make_mad_attack(victim, 0.075, 3);
  const auto obs = rng.normal_vec(11, 0.0, 0.3);
  const auto d1 = attack(obs);
  const auto d2 = attack(obs);
  ASSERT_EQ(d1.size(), 11u);
  EXPECT_EQ(d1, d2);  // white-box heuristic is deterministic per state
  for (const double x : d1) EXPECT_LE(std::abs(x), 1.0 + 1e-12);
}

TEST(GradientAttack, MadMaximizesActionDeviation) {
  // Against the victim's own network, the MAD corner must move the action
  // at least as much as a random corner does (on average).
  Rng rng(5);
  const auto victim = make_victim_net(rng);
  const double eps = 0.1;
  const auto attack = make_mad_attack(victim, eps, 3);
  const auto handle = rl::PolicyHandle::snapshot(victim);

  double mad_dev = 0.0, rand_dev = 0.0;
  Rng qrng(7);
  const int n = 40;
  for (int i = 0; i < n; ++i) {
    const auto obs = qrng.normal_vec(11, 0.0, 0.3);
    const auto mu = handle.query(obs);
    auto deviation = [&](const std::vector<double>& dir) {
      auto adv = obs;
      for (std::size_t c = 0; c < adv.size(); ++c) adv[c] += eps * dir[c];
      const auto mu2 = handle.query(adv);
      double sq = 0.0;
      for (std::size_t c = 0; c < mu.size(); ++c)
        sq += (mu2[c] - mu[c]) * (mu2[c] - mu[c]);
      return sq;
    };
    mad_dev += deviation(attack(obs));
    std::vector<double> random_corner(11);
    for (auto& x : random_corner) x = qrng.bernoulli(0.5) ? 1.0 : -1.0;
    rand_dev += deviation(random_corner);
  }
  EXPECT_GT(mad_dev, rand_dev);
}

TEST(GradientAttack, FgsmIsSingleStepMad) {
  Rng rng(9);
  const auto victim = make_victim_net(rng);
  const auto fgsm = make_fgsm_attack(victim, 0.075);
  const auto mad1 = make_mad_attack(victim, 0.075, 1);
  const auto obs = rng.normal_vec(11, 0.0, 0.3);
  EXPECT_EQ(fgsm(obs), mad1(obs));
}

TEST(GradientAttack, PlugsIntoTheThreatModel) {
  Rng rng(11);
  auto victim_policy = make_victim_net(rng);
  const auto env = env::make_hopper();
  Rng er(13);
  const auto eval = evaluate_attack(*env,
                                    rl::PolicyHandle::snapshot(victim_policy),
                                    make_mad_attack(victim_policy, 0.075, 2),
                                    0.075, 5, er);
  EXPECT_EQ(eval.episode_returns.size(), 5u);
}

TEST(GradientAttack, RejectsBadConfig) {
  Rng rng(3);
  const auto victim = make_victim_net(rng);
  EXPECT_THROW(make_mad_attack(victim, 0.0), imap::CheckError);
  EXPECT_THROW(make_mad_attack(victim, 0.1, 0), imap::CheckError);
}

TEST(RelaxedSaRl, TrainsOnTrueRewardChannel) {
  const auto env = env::make_hopper();
  rl::ActionFn victim = [](const std::vector<double>&) {
    return std::vector<double>{0.2, 0.2, 0.2};
  };
  // The relaxed wrapper must report the NEGATED true reward to the learner.
  StatePerturbationEnv relaxed(*env, victim, 0.075,
                               RewardMode::AdversaryRelaxed);
  StatePerturbationEnv true_mode(*env, victim, 0.075,
                                 RewardMode::VictimTrue);
  Rng r1(3), r2(3);
  relaxed.reset(r1);
  true_mode.reset(r2);
  const std::vector<double> zero(relaxed.act_dim(), 0.0);
  const auto sa = relaxed.step(zero);
  const auto st = true_mode.step(zero);
  EXPECT_DOUBLE_EQ(sa.reward, -st.reward);

  rl::PpoOptions ppo;
  ppo.steps_per_iter = 512;
  SaRl attacker(*env, victim, 0.075, ppo, Rng(5), /*relaxed=*/true);
  const auto stats = attacker.train(1024);
  EXPECT_FALSE(stats.empty());
}

}  // namespace
}  // namespace imap::attack
