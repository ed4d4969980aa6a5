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

TEST(Matrix, MatvecAndTranspose) {
  Matrix m(2, 3);
  // [1 2 3; 4 5 6]
  double v = 1.0;
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 3; ++c) m(r, c) = v++;
  const auto y = m.matvec({1.0, 0.0, -1.0});
  EXPECT_DOUBLE_EQ(y[0], -2.0);
  EXPECT_DOUBLE_EQ(y[1], -2.0);
  const auto yt = m.matvec_transposed({1.0, 1.0});
  EXPECT_DOUBLE_EQ(yt[0], 5.0);
  EXPECT_DOUBLE_EQ(yt[1], 7.0);
  EXPECT_DOUBLE_EQ(yt[2], 9.0);
}

TEST(Matrix, AddOuter) {
  Matrix m(2, 2);
  m.add_outer({1.0, 2.0}, {3.0, 4.0}, 0.5);
  EXPECT_DOUBLE_EQ(m(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(m(1, 1), 4.0);
}

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
  const Batch g1 = net.backward_batch(ws, gout);
  const Batch& g2 = net.input_gradient_batch(ws, gout);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(g1(0, i), g2(0, i));
}

TEST(Mlp, RejectsWrongInputDim) {
  Rng rng(1);
  Mlp net({3, 4, 2}, rng);
  EXPECT_THROW(net.forward({1.0, 2.0}), CheckError);
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

TEST(DiagGaussian, LogProbMatchesClosedForm) {
  // 1-D standard normal at 0: log(1/sqrt(2π)).
  EXPECT_NEAR(diag_gaussian::log_prob({0.0}, {0.0}, {0.0}),
              -0.5 * std::log(2 * M_PI), 1e-12);
  // Scaling: N(0, e²) at x=e has logp = -0.5 - 1 - 0.5 ln 2π.
  EXPECT_NEAR(diag_gaussian::log_prob({std::exp(1.0)}, {0.0}, {1.0}),
              -0.5 - 1.0 - 0.5 * std::log(2 * M_PI), 1e-12);
}

TEST(DiagGaussian, EntropyAndKl) {
  EXPECT_NEAR(diag_gaussian::entropy({0.0}),
              0.5 * std::log(2 * M_PI * std::exp(1.0)), 1e-12);
  // KL(p‖p) = 0.
  EXPECT_NEAR(diag_gaussian::kl({1.0, 2.0}, {0.1, -0.2}, {1.0, 2.0},
                                {0.1, -0.2}),
              0.0, 1e-12);
  // KL between unit Gaussians with mean shift δ is δ²/2.
  EXPECT_NEAR(diag_gaussian::kl({1.0}, {0.0}, {0.0}, {0.0}), 0.5, 1e-12);
  EXPECT_GT(diag_gaussian::kl({0.0}, {1.0}, {0.0}, {0.0}), 0.0);
}

TEST(GaussianPolicy, SampleStatisticsMatchParameters) {
  Rng rng(9);
  GaussianPolicy pi(3, 2, {16}, rng, /*init_log_std=*/-0.5);
  const auto obs = rng.normal_vec(3);
  const auto mu = pi.mean_action(obs);
  std::vector<double> acc(2, 0.0), acc2(2, 0.0);
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const auto a = pi.act(obs, rng);
    for (int d = 0; d < 2; ++d) {
      acc[d] += a[d];
      acc2[d] += (a[d] - mu[d]) * (a[d] - mu[d]);
    }
  }
  for (int d = 0; d < 2; ++d) {
    EXPECT_NEAR(acc[d] / n, mu[d], 0.02);
    EXPECT_NEAR(std::sqrt(acc2[d] / n), std::exp(-0.5), 0.02);
  }
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
  const double h = 1e-6;
  for (std::size_t i = 0; i < params.size(); i += 5) {
    auto p = params;
    p[i] += h;
    pi.set_flat_params(p);
    const double lp = pi.log_prob(obs, act);
    p[i] = params[i] - h;
    pi.set_flat_params(p);
    const double lm = pi.log_prob(obs, act);
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
  const double h = 1e-6;
  for (std::size_t i = 0; i < v.params().size(); i += 3) {
    const double orig = v.params()[i];
    v.params()[i] = orig + h;
    const double vp = v.value(obs);
    v.params()[i] = orig - h;
    const double vm = v.value(obs);
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
  const auto obs = rng.normal_vec(5);
  EXPECT_EQ(loaded->mean_action(obs), pi.mean_action(obs));
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
  const auto obs = rng.normal_vec(4);
  EXPECT_DOUBLE_EQ(v2.value(obs), v.value(obs));
}

}  // namespace
}  // namespace imap::nn
