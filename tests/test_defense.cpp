#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "defense/atla.h"
#include "defense/radial.h"
#include "defense/sa_regularizer.h"
#include "defense/victim_trainer.h"
#include "defense/wocar.h"
#include "env/hopper.h"

namespace imap::defense {
namespace {

TEST(DefenseKind, NamesRoundTrip) {
  for (const auto kind : all_defenses())
    EXPECT_EQ(defense_from_string(to_string(kind)), kind);
  EXPECT_EQ(all_defenses().size(), 6u);
  EXPECT_THROW(defense_from_string("NotADefense"), CheckError);
}

// Measure the policy's worst-case local output deviation under ε-ball
// input perturbation (sampled corners) — the quantity the smoothness hooks
// are supposed to shrink.
double roughness(const nn::GaussianPolicy& pi, double eps, Rng& rng) {
  const auto handle = rl::PolicyHandle::snapshot(pi);
  double total = 0.0;
  const int n_states = 40, n_corners = 8;
  for (int s = 0; s < n_states; ++s) {
    const auto obs = rng.normal_vec(pi.obs_dim(), 0.0, 0.3);
    const auto mu = handle.query(obs);
    double worst = 0.0;
    for (int c = 0; c < n_corners; ++c) {
      auto adv = obs;
      for (auto& x : adv) x += rng.bernoulli(0.5) ? eps : -eps;
      const auto mu2 = handle.query(adv);
      double sq = 0.0;
      for (std::size_t i = 0; i < mu.size(); ++i)
        sq += (mu2[i] - mu[i]) * (mu2[i] - mu[i]);
      worst = std::max(worst, sq);
    }
    total += worst;
  }
  return total / n_states;
}

// Shared fixture: a tiny rollout of random states for hook invocation.
rl::RolloutBuffer random_rollout(std::size_t obs_dim, std::size_t act_dim,
                                 int n, Rng& rng) {
  rl::RolloutBuffer buf;
  for (int i = 0; i < n; ++i)
    buf.add(rng.normal_vec(obs_dim, 0.0, 0.3), rng.normal_vec(act_dim), 0.0,
            0.0, 0.0);
  return buf;
}

class HookSmoothing : public ::testing::TestWithParam<std::string> {};

TEST_P(HookSmoothing, RepeatedApplicationReducesRoughness) {
  Rng rng(7);
  nn::GaussianPolicy pi(6, 3, {16}, rng);
  // Roughen the policy first so there is something to smooth.
  for (double& w : pi.net().params()) w *= 3.0;

  const double eps = 0.15;
  rl::PpoTrainer::RegularizerHook hook;
  if (GetParam() == "SA")
    hook = make_smoothness_hook(eps, 1.0, 1, rng.split(1));
  else if (GetParam() == "RADIAL")
    hook = make_radial_hook(eps, 1.0, 4, rng.split(1));
  else
    hook = make_wocar_hook(eps, 1.0, rng.split(1));

  Rng mrng(9);
  const double before = roughness(pi, eps, mrng);

  nn::Adam opt(pi.n_params(), {.lr = 3e-3});
  auto buf = random_rollout(6, 3, 64, rng);
  std::vector<std::size_t> batch(buf.size());
  for (std::size_t i = 0; i < batch.size(); ++i) batch[i] = i;
  for (int iter = 0; iter < 60; ++iter) {
    pi.zero_grad();
    hook(pi, buf, batch);
    auto p = pi.flat_params();
    opt.step(p, pi.flat_grads());
    pi.set_flat_params(p);
  }
  Rng mrng2(9);
  const double after = roughness(pi, eps, mrng2);
  EXPECT_LT(after, 0.6 * before) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllHooks, HookSmoothing,
                         ::testing::Values("SA", "RADIAL", "WocaR"),
                         [](const auto& param_info) { return param_info.param; });

// Reset and step observations are inner + ε·clamp(a, −1, 1) bit for bit,
// with the adversary reading the clean inner observation; its outputs span
// both clamp bounds and the unclamped middle.
TEST(PerturbedVictimEnv, AppliesAdversaryToObservations) {
  const auto inner = env::make_hopper();
  const rl::ActionFn adv = [](const std::vector<double>& o) {
    std::vector<double> a(o.size());
    for (std::size_t i = 0; i < o.size(); ++i)
      a[i] = 7.0 * o[i] + (i % 3 == 0 ? 2.5 : i % 3 == 1 ? -2.5 : 0.1);
    return a;
  };
  const double eps = 0.075;
  const auto expected = [&](const std::vector<double>& clean) {
    const auto a = adv(clean);
    std::vector<double> out = clean;
    for (std::size_t i = 0; i < out.size(); ++i)
      out[i] = clean[i] + eps * std::clamp(a[i], -1.0, 1.0);
    return out;
  };
  PerturbedVictimEnv env(*inner, adv, eps);
  auto plain = inner->clone();
  Rng r1(5), r2(5);
  EXPECT_EQ(env.reset(r1), expected(plain->reset(r2)));
  const std::vector<double> action{0.3, -0.2, 0.1};
  for (int t = 0; t < 20; ++t) {
    const auto sp = env.step(action);
    const auto sc = plain->step(action);
    EXPECT_EQ(sp.obs, expected(sc.obs)) << "step " << t;
    EXPECT_EQ(sp.reward, sc.reward) << "step " << t;
    if (sc.done || sc.truncated) break;
  }
}

TEST(PerturbedVictimEnv, KeepsTaskReward) {
  const auto inner = env::make_hopper();
  const rl::ActionFn zero = [](const std::vector<double>& o) {
    return std::vector<double>(o.size(), 0.0);
  };
  PerturbedVictimEnv env(*inner, zero, 0.075);
  Rng rng(3);
  env.reset(rng);
  const auto sr = env.step({0.0, 0.0, 0.0});
  EXPECT_GT(sr.reward, 0.0);  // alive bonus — the victim's own reward
}

TEST(TrainVictim, VanillaSmokeAndDeterminism) {
  const auto env = env::make_hopper();
  DefenseOptions opts;
  opts.ppo.steps_per_iter = 512;
  auto p1 = train_victim(*env, DefenseKind::Vanilla, 1024, opts, Rng(3));
  auto p2 = train_victim(*env, DefenseKind::Vanilla, 1024, opts, Rng(3));
  EXPECT_EQ(p1.flat_params(), p2.flat_params());
  EXPECT_EQ(p1.obs_dim(), env->obs_dim());
}

TEST(TrainVictim, AtlaSmoke) {
  const auto env = env::make_hopper();
  DefenseOptions opts;
  opts.eps = 0.075;
  opts.ppo.steps_per_iter = 512;
  opts.atla_rounds = 2;
  const auto p =
      train_victim(*env, DefenseKind::ATLA, 4096, opts, Rng(3));
  EXPECT_EQ(p.act_dim(), env->act_dim());
}

TEST(TrainVictim, RegularizedKindsSmoke) {
  const auto env = env::make_hopper();
  DefenseOptions opts;
  opts.eps = 0.075;
  opts.ppo.steps_per_iter = 512;
  for (const auto kind :
       {DefenseKind::SA, DefenseKind::RADIAL, DefenseKind::WocaR}) {
    const auto p = train_victim(*env, kind, 2048, opts, Rng(3));
    EXPECT_EQ(p.obs_dim(), env->obs_dim()) << to_string(kind);
  }
}

}  // namespace
}  // namespace imap::defense
