#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "common/check.h"
#include "nn/adam.h"
#include "nn/batch.h"
#include "nn/checkpoint.h"
#include "nn/gaussian.h"
#include "nn/matrix.h"
#include "nn/mlp.h"

namespace imap::nn {
namespace {

TEST(VectorOps, Basics) {
  std::vector<double> y{1, 2};
  axpy(y, 2.0, {3, 4});
  EXPECT_DOUBLE_EQ(y[0], 7.0);
  EXPECT_DOUBLE_EQ(dot({1, 2, 3}, {4, 5, 6}), 32.0);
  EXPECT_DOUBLE_EQ(l2norm({3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(linf_norm({-7, 3}), 7.0);
}

TEST(Mlp, InputGradientMatchesBackward) {
  Rng rng(5);
  Mlp net({3, 6, 2}, rng);
  Batch x(1, 3);
  x.set_row(0, rng.normal_vec(3));
  Batch gout(1, 2);
  gout.set_row(0, {1.0, -2.0});
  Mlp::Workspace ws;
  net.forward_batch(x, ws);
  net.zero_grad();
  // backward_batch forms no dL/dinput; it must leave the tape intact, so
  // input_gradient_batch reads the same rows before and after it.
  const Batch g1 = net.input_gradient_batch(ws, gout);
  net.backward_batch(ws, gout);
  const Batch& g2 = net.input_gradient_batch(ws, gout);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(g1(0, i), g2(0, i));
}

TEST(Mlp, RejectsWrongInputDim) {
  Rng rng(1);
  Mlp net({3, 4, 2}, rng);
  Batch x(1, 2);
  x.fill(1.0);
  EXPECT_THROW(net.forward_batch(x), CheckError);
}

TEST(Adam, MinimizesQuadratic) {
  std::vector<double> p{5.0, -3.0};
  Adam opt(2, {.lr = 0.05, .max_grad_norm = 0.0});
  for (int i = 0; i < 2000; ++i) {
    const std::vector<double> g{2.0 * (p[0] - 1.0), 2.0 * (p[1] + 2.0)};
    opt.step(p, g);
  }
  EXPECT_NEAR(p[0], 1.0, 1e-2);
  EXPECT_NEAR(p[1], -2.0, 1e-2);
}

TEST(Adam, ClipsGlobalNorm) {
  std::vector<double> p{0.0};
  Adam opt(1, {.lr = 1.0, .max_grad_norm = 0.5});
  opt.step(p, {1e9});
  // With clipping the first Adam step is ≈ −lr regardless of magnitude, and
  // never catastrophically large.
  EXPECT_LT(std::abs(p[0]), 2.0);
}

/// 1-D log density and KL through the pointer cores.
double log_prob1(double a, double mean, double log_std) {
  const double inv_std = std::exp(-log_std);
  return diag_gaussian::log_prob(&a, &mean, &log_std, &inv_std, 1);
}
double kl1(double mp, double lp, double mq, double lq) {
  return diag_gaussian::kl(&mp, &lp, &mq, &lq, 1);
}

TEST(DiagGaussian, LogProbMatchesClosedForm) {
  // 1-D standard normal at 0: log(1/sqrt(2π)).
  EXPECT_NEAR(log_prob1(0.0, 0.0, 0.0), -0.5 * std::log(2 * M_PI), 1e-12);
  // Scaling: N(0, e²) at x=e has logp = -0.5 - 1 - 0.5 ln 2π.
  EXPECT_NEAR(log_prob1(std::exp(1.0), 0.0, 1.0),
              -0.5 - 1.0 - 0.5 * std::log(2 * M_PI), 1e-12);
}

TEST(DiagGaussian, EntropyAndKl) {
  EXPECT_NEAR(diag_gaussian::entropy({0.0}),
              0.5 * std::log(2 * M_PI * std::exp(1.0)), 1e-12);
  // KL(p‖p) = 0.
  const std::vector<double> m{1.0, 2.0}, ls{0.1, -0.2};
  EXPECT_NEAR(diag_gaussian::kl(m.data(), ls.data(), m.data(), ls.data(), 2),
              0.0, 1e-12);
  // KL between unit Gaussians with mean shift δ is δ²/2.
  EXPECT_NEAR(kl1(1.0, 0.0, 0.0, 0.0), 0.5, 1e-12);
  EXPECT_GT(kl1(0.0, 1.0, 0.0, 0.0), 0.0);
}

TEST(GaussianPolicy, BackwardLogpMatchesFiniteDifferences) {
  Rng rng(13);
  GaussianPolicy pi(3, 2, {8}, rng);
  const auto obs = rng.normal_vec(3);
  const auto act = rng.normal_vec(2);

  Batch obs_b(1, 3), act_b(1, 2);
  obs_b.set_row(0, obs);
  act_b.set_row(0, act);
  pi.zero_grad();
  pi.mean_batch(obs_b);
  pi.backward_logp_batch(act_b, {1.0});
  const auto analytic = pi.flat_grads();

  auto params = pi.flat_params();
  std::vector<double> logp;
  auto log_prob = [&] {
    pi.log_prob_batch(obs_b, act_b, logp);
    return logp[0];
  };
  const double h = 1e-6;
  for (std::size_t i = 0; i < params.size(); i += 5) {
    auto p = params;
    p[i] += h;
    pi.set_flat_params(p);
    const double lp = log_prob();
    p[i] = params[i] - h;
    pi.set_flat_params(p);
    const double lm = log_prob();
    pi.set_flat_params(params);
    EXPECT_NEAR(analytic[i], (lp - lm) / (2 * h), 1e-4) << "param " << i;
  }
}

TEST(GaussianPolicy, ClampLogStd) {
  Rng rng(1);
  GaussianPolicy pi(2, 2, {4}, rng, /*init_log_std=*/5.0);
  pi.clamp_log_std(-3.0, 1.0);
  for (const double ls : pi.log_std()) EXPECT_LE(ls, 1.0);
}

TEST(ValueNet, BackwardMatchesFiniteDifferences) {
  Rng rng(17);
  ValueNet v(4, {8}, rng);
  const auto obs = rng.normal_vec(4);
  Batch obs_b(1, 4);
  obs_b.set_row(0, obs);
  std::vector<double> vals;
  v.zero_grad();
  v.value_batch(obs_b, vals);
  v.backward_batch({1.0});
  const auto analytic = v.grads();
  auto value = [&] {
    v.value_batch(obs_b, vals);
    return vals[0];
  };
  const double h = 1e-6;
  for (std::size_t i = 0; i < v.params().size(); i += 3) {
    const double orig = v.params()[i];
    v.params()[i] = orig + h;
    const double vp = value();
    v.params()[i] = orig - h;
    const double vm = value();
    v.params()[i] = orig;
    EXPECT_NEAR(analytic[i], (vp - vm) / (2 * h), 1e-4);
  }
}

TEST(Checkpoint, PolicyRoundTrip) {
  Rng rng(21);
  GaussianPolicy pi(5, 3, {16, 16}, rng);
  const std::string path = "/tmp/imap_test_policy.pol";
  ASSERT_TRUE(save_policy(path, pi));
  const auto loaded = load_policy(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->obs_dim(), 5u);
  EXPECT_EQ(loaded->act_dim(), 3u);
  Batch obs(1, 5);
  obs.set_row(0, rng.normal_vec(5));
  Mlp::Workspace ws_loaded, ws_pi;
  const Batch& a = loaded->mean_batch(obs, ws_loaded);
  const Batch& b = pi.mean_batch(obs, ws_pi);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(a(0, i), b(0, i));
  std::remove(path.c_str());
}

TEST(Checkpoint, MissingPolicyIsNullopt) {
  EXPECT_FALSE(load_policy("/tmp/not_a_policy_anywhere.pol").has_value());
}

TEST(Checkpoint, ValueNetRoundTrip) {
  Rng rng(23);
  ValueNet v(4, {8}, rng);
  BinaryWriter w;
  write_value_net(w, v);
  BinaryReader r(std::vector<std::uint8_t>(w.buffer()));
  const auto v2 = read_value_net(r);
  Batch obs(1, 4);
  obs.set_row(0, rng.normal_vec(4));
  Mlp::Workspace ws;
  std::vector<double> a, b;
  v2.value_batch(obs, ws, a);
  v.value_batch(obs, b);
  EXPECT_DOUBLE_EQ(a[0], b[0]);
}

}  // namespace
}  // namespace imap::nn
