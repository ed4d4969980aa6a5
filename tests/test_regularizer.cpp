#include <gtest/gtest.h>

#include <cmath>

#include "common/check.h"
#include "common/stats.h"
#include "core/mimic.h"
#include "core/regularizer.h"
#include "rl/policy_handle.h"

namespace imap::core {
namespace {

// Build a rollout whose states are mostly clustered at the origin with a few
// far-flung outliers — the canonical situation where coverage bonuses must
// reward the outliers.
rl::RolloutBuffer clustered_rollout(std::size_t dim, std::size_t n_cluster,
                                    std::size_t n_outliers, Rng& rng) {
  rl::RolloutBuffer buf;
  for (std::size_t i = 0; i < n_cluster; ++i)
    buf.add(rng.normal_vec(dim, 0.0, 0.05), {0.0}, 0.0, 0.0, 0.0);
  for (std::size_t i = 0; i < n_outliers; ++i) {
    auto far = rng.normal_vec(dim, 0.0, 0.05);
    far[0] += 5.0 + static_cast<double>(i);
    buf.add(std::move(far), {0.0}, 0.0, 0.0, 0.0);
  }
  return buf;
}

nn::GaussianPolicy dummy_policy(std::size_t obs_dim, std::size_t act_dim) {
  Rng rng(99);
  return nn::GaussianPolicy(obs_dim, act_dim, {8}, rng);
}

TEST(Regularizer, NamesRoundTrip) {
  for (const auto t : {RegularizerType::SC, RegularizerType::PC,
                       RegularizerType::R, RegularizerType::D})
    EXPECT_EQ(regularizer_from_string(to_string(t)), t);
  EXPECT_THROW(regularizer_from_string("XX"), CheckError);
}

TEST(ObsSlice, ProjectionSemantics) {
  const std::vector<double> s{0.0, 1.0, 2.0, 3.0};
  ObsSlice whole;
  EXPECT_EQ(whole.project(s), s);
  EXPECT_EQ(whole.dim(4), 4u);
  ObsSlice mid{1, 3};
  EXPECT_EQ(mid.project(s), (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(mid.dim(4), 2u);
  // The in-place form writes the same values.
  std::vector<double> row(2, -1.0);
  mid.project(s, row.data());
  EXPECT_EQ(row, (std::vector<double>{1.0, 2.0}));
  std::vector<double> full(4, -1.0);
  whole.project(s, full.data());
  EXPECT_EQ(full, s);
  EXPECT_THROW((ObsSlice{3, 5}.project(s, row.data())), CheckError);
}

TEST(ScRegularizer, RewardsNovelStates) {
  Rng rng(3);
  auto buf = clustered_rollout(4, 120, 4, rng);
  RegularizerOptions opts;
  opts.type = RegularizerType::SC;
  auto reg = make_regularizer(opts, 4, 1, rng.split(1));
  const auto policy = dummy_policy(4, 1);
  reg->compute(buf, policy);

  // Mean bonus of the outliers must dominate the cluster's.
  double cluster = 0.0, outlier = 0.0;
  for (std::size_t i = 0; i < 120; ++i) cluster += buf.rew_i[i];
  for (std::size_t i = 120; i < buf.size(); ++i) outlier += buf.rew_i[i];
  cluster /= 120.0;
  outlier /= 4.0;
  EXPECT_GT(outlier, 3.0 * cluster + 0.1);
  for (const double r : buf.rew_i) EXPECT_TRUE(std::isfinite(r));
}

TEST(PcRegularizer, PenalizesRevisitingAcrossIterations) {
  Rng rng(5);
  RegularizerOptions opts;
  opts.type = RegularizerType::PC;
  opts.pc_capacity = 1024;
  auto reg = make_regularizer(opts, 3, 1, rng.split(1));
  const auto policy = dummy_policy(3, 1);

  // Iteration 1: cluster at the origin.
  auto buf1 = clustered_rollout(3, 100, 0, rng);
  reg->compute(buf1, policy);
  const double first_visit = mean(buf1.rew_i);

  // Iteration 2: same cluster again — B now contains it, bonus must shrink.
  auto buf2 = clustered_rollout(3, 100, 0, rng);
  reg->compute(buf2, policy);
  const double revisit = mean(buf2.rew_i);
  EXPECT_LT(revisit, 2.0 * first_visit);  // no blow-up on revisits

  // Iteration 3: a brand-new region scores higher than the revisit.
  rl::RolloutBuffer buf3;
  for (int i = 0; i < 100; ++i) {
    auto s = rng.normal_vec(3, 0.0, 0.05);
    s[1] += 8.0;
    buf3.add(std::move(s), {0.0}, 0.0, 0.0, 0.0);
  }
  reg->compute(buf3, policy);
  EXPECT_GT(mean(buf3.rew_i), revisit);
}

TEST(PcRegularizer, MultiAgentMarginalsRespectXi) {
  Rng rng(7);
  RegularizerOptions opts;
  opts.type = RegularizerType::PC;
  opts.adversary_slice = {0, 2};
  opts.victim_slice = {2, 4};
  opts.xi = 1.0;  // only the victim marginal counts
  auto reg = make_regularizer(opts, 4, 1, rng.split(1));
  const auto policy = dummy_policy(4, 1);

  // States novel in the ADVERSARY marginal only must earn ~nothing at ξ=1.
  rl::RolloutBuffer buf;
  for (int i = 0; i < 60; ++i)
    buf.add({0.0, 0.0, 0.1, 0.1}, {0.0}, 0.0, 0.0, 0.0);
  for (int i = 0; i < 4; ++i)
    buf.add({9.0 + i, 9.0, 0.1, 0.1}, {0.0}, 0.0, 0.0, 0.0);  // adv novel
  reg->compute(buf, policy);
  double cluster = 0.0, adv_novel = 0.0;
  for (int i = 0; i < 60; ++i) cluster += buf.rew_i[i];
  for (std::size_t i = 60; i < buf.size(); ++i) adv_novel += buf.rew_i[i];
  EXPECT_NEAR(adv_novel / 4.0, cluster / 60.0, 0.5);
}

TEST(RiskRegularizer, NegativeDistanceToTarget) {
  Rng rng(9);
  RegularizerOptions opts;
  opts.type = RegularizerType::R;
  opts.risk_target = {1.0, 0.0};
  auto reg = make_regularizer(opts, 2, 1, rng.split(1));
  const auto policy = dummy_policy(2, 1);

  rl::RolloutBuffer buf;
  buf.add({1.0, 0.0}, {0.0}, 0.0, 0.0, 0.0);  // at the target
  buf.add({4.0, 4.0}, {0.0}, 0.0, 0.0, 0.0);  // far
  reg->compute(buf, policy);
  EXPECT_NEAR(buf.rew_i[0], 0.0, 1e-12);
  EXPECT_NEAR(buf.rew_i[1], -5.0, 1e-12);
  EXPECT_LT(buf.rew_i[1], buf.rew_i[0]);
}

TEST(RiskRegularizer, RequiresTarget) {
  Rng rng(9);
  RegularizerOptions opts;
  opts.type = RegularizerType::R;
  EXPECT_THROW(make_regularizer(opts, 2, 1, rng), CheckError);
}

/// a ~ π(·|s): the policy mean plus exp(log_std)-scaled Gaussian noise.
std::vector<double> sample_action(const nn::GaussianPolicy& policy,
                                  const std::vector<double>& s, Rng& rng) {
  auto a = rl::PolicyHandle::snapshot(policy).query(s);
  for (std::size_t i = 0; i < a.size(); ++i)
    a[i] += std::exp(policy.log_std()[i]) * rng.normal();
  return a;
}

TEST(MimicPolicy, BehaviourCloningConvergesToTargetPolicy) {
  // Direct test of the D-regularizer's inner machinery: with a generous
  // learning rate and enough supervised passes, the mimic closes the KL gap
  // to a fixed target policy.
  Rng rng(21);
  nn::GaussianPolicy target(3, 2, {8}, rng);
  // Make the target clearly non-trivial.
  auto& params = target.net().params();
  for (std::size_t i = params.size() - 2; i < params.size(); ++i)
    params[i] += 1.0;  // output biases

  MimicPolicy mimic(3, 2, {8}, rng.split(1), /*lr=*/0.02);
  rl::RolloutBuffer buf;
  Rng srng(5);
  for (int i = 0; i < 512; ++i) {
    const auto s = srng.normal_vec(3);
    buf.add(s, sample_action(target, s, srng), 0.0, 0.0, 0.0);
  }

  nn::Batch probe(64, 3);
  Rng qrng(9);
  for (std::size_t i = 0; i < 64; ++i) probe.set_row(i, qrng.normal_vec(3));
  std::vector<double> kl;
  auto mean_kl = [&] {
    mimic.kl_from(target, probe, kl);
    return mean(kl);
  };

  const double before = mean_kl();
  mimic.update(buf, /*epochs=*/60, /*minibatch=*/128);
  const double after = mean_kl();
  EXPECT_GT(before, 0.05);
  EXPECT_LT(after, 0.5 * before);
}

TEST(DivergenceRegularizer, PositiveBoundedAndTracksPolicyDistance) {
  Rng rng(11);
  RegularizerOptions opts;
  opts.type = RegularizerType::D;
  auto reg = make_regularizer(opts, 3, 2, rng.split(1));

  Rng prng(42);
  nn::GaussianPolicy policy(3, 2, {8}, prng);

  // Rollout of states with the policy's own actions.
  auto make_buf = [&] {
    rl::RolloutBuffer buf;
    Rng srng(5);
    for (int i = 0; i < 256; ++i) {
      const auto s = srng.normal_vec(3);
      buf.add(s, sample_action(policy, s, srng), 0.0, 0.0, 0.0);
    }
    return buf;
  };

  auto buf = make_buf();
  reg->compute(buf, policy);
  const double kl_near = mean(buf.rew_i);
  EXPECT_GE(kl_near, 0.0);
  for (const double r : buf.rew_i) {
    EXPECT_GE(r, 0.0);   // KL is non-negative
    EXPECT_LE(r, 50.0);  // and clamped
  }

  // Move the policy away from where the mimic has seen it: the bonus must
  // grow — "deviate from your past selves and earn exploration reward".
  auto& params = policy.net().params();
  for (std::size_t i = params.size() - 2; i < params.size(); ++i)
    params[i] += 1.5;  // output biases
  auto buf2 = make_buf();
  reg->compute(buf2, policy);
  EXPECT_GT(mean(buf2.rew_i), kl_near + 0.1);
}

}  // namespace
}  // namespace imap::core
