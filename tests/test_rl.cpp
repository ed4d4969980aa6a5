#include <gtest/gtest.h>

#include <cmath>

#include "common/check.h"
#include "rl/env.h"
#include "rl/evaluate.h"
#include "rl/gae.h"
#include "rl/ppo.h"
#include "rl/space.h"

namespace imap::rl {
namespace {

// A deliberately simple test MDP: 1-D position, action moves it, reward is
// −|x − 3|. Optimal behaviour: run to x = 3 and stay. Terminates (done) if
// |x| > 10, truncates at max_steps.
class LineEnv : public EnvBase<LineEnv> {
 public:
  std::size_t obs_dim() const override { return 1; }
  std::size_t act_dim() const override { return 1; }
  int max_steps() const override { return 60; }
  std::string name() const override { return "Line"; }
  const BoxSpace& action_space() const override { return space_; }

  std::vector<double> reset(Rng& rng) override {
    x_ = rng.uniform(-1.0, 1.0);
    t_ = 0;
    return {x_};
  }

  StepResult step(const std::vector<double>& a) override {
    x_ += 0.5 * std::clamp(a[0], -1.0, 1.0);
    ++t_;
    StepResult sr;
    sr.obs = {x_};
    sr.reward = -std::abs(x_ - 3.0);
    sr.done = std::abs(x_) > 10.0;
    sr.truncated = !sr.done && t_ >= max_steps();
    sr.surrogate = std::abs(x_ - 3.0) < 0.5 ? 1.0 : 0.0;
    sr.task_completed = sr.truncated && std::abs(x_ - 3.0) < 0.5;
    return sr;
  }

 private:
  BoxSpace space_{1, 1.0};
  double x_ = 0.0;
  int t_ = 0;
};

TEST(BoxSpace, ClampAndContains) {
  BoxSpace box({-1.0, 0.0}, {1.0, 2.0});
  const auto c = box.clamp({5.0, -5.0});
  EXPECT_DOUBLE_EQ(c[0], 1.0);
  EXPECT_DOUBLE_EQ(c[1], 0.0);
  EXPECT_TRUE(box.contains(c));
  EXPECT_FALSE(box.contains({2.0, 1.0}));
  EXPECT_THROW(BoxSpace(std::vector<double>{1.0}, std::vector<double>{0.0}),
               CheckError);
}

TEST(BoxSpace, SampleWithinBounds) {
  BoxSpace box(3, 2.5);
  Rng rng(3);
  for (int i = 0; i < 100; ++i)
    EXPECT_TRUE(box.contains(box.sample(rng)));
}

TEST(Gae, SingleStepEpisodeMatchesHandComputation) {
  // One episode of length 1, done: A = r − V(s).
  const auto res = compute_gae({2.0}, {0.5}, {1}, {1}, {0.0}, 0.9, 0.95);
  EXPECT_NEAR(res.advantages[0], 1.5, 1e-12);
  EXPECT_NEAR(res.returns[0], 2.0, 1e-12);
}

TEST(Gae, TwoStepHandComputation) {
  // r = {1, 1}, V = {0, 0}, done at t=1. γ = λ = 1 ⇒ A0 = 2, A1 = 1.
  const auto res =
      compute_gae({1.0, 1.0}, {0.0, 0.0}, {0, 1}, {0, 1}, {0.0}, 1.0, 1.0);
  EXPECT_NEAR(res.advantages[0], 2.0, 1e-12);
  EXPECT_NEAR(res.advantages[1], 1.0, 1e-12);
}

TEST(Gae, TruncationBootstrapsValue) {
  // Truncated (not done): bootstrap with V(s') = 10, γ = 0.5.
  const auto res = compute_gae({1.0}, {0.0}, {0}, {1}, {10.0}, 0.5, 1.0);
  EXPECT_NEAR(res.advantages[0], 1.0 + 0.5 * 10.0, 1e-12);
}

TEST(Gae, SegmentsDoNotLeak) {
  // Two one-step episodes; a huge reward in the second must not bleed into
  // the first segment's advantage.
  const auto res = compute_gae({0.0, 100.0}, {0.0, 0.0}, {1, 1}, {1, 1},
                               {0.0, 0.0}, 0.99, 0.95);
  EXPECT_NEAR(res.advantages[0], 0.0, 1e-12);
  EXPECT_NEAR(res.advantages[1], 100.0, 1e-12);
}

TEST(Gae, RequiresOneBootstrapPerBoundary) {
  EXPECT_THROW(
      compute_gae({1.0, 1.0}, {0.0, 0.0}, {0, 0}, {1, 1}, {0.0}, 0.9, 0.9),
      CheckError);
}

TEST(Gae, NormalizeAdvantages) {
  std::vector<double> adv{1.0, 2.0, 3.0, 4.0};
  normalize_advantages(adv);
  double m = 0.0;
  for (double a : adv) m += a;
  EXPECT_NEAR(m, 0.0, 1e-12);
  // Constant input is left unchanged (no divide-by-zero blowup).
  std::vector<double> flat{2.0, 2.0, 2.0};
  normalize_advantages(flat);
  EXPECT_DOUBLE_EQ(flat[0], 2.0);
}

TEST(Ppo, LearnsTheLineTask) {
  LineEnv env;
  PpoOptions opts;
  opts.steps_per_iter = 1024;
  PpoTrainer trainer(env, opts, Rng(3));
  const auto stats = trainer.train(40'000);
  ASSERT_FALSE(stats.empty());
  // Optimal return ≈ −(ramp-in cost) ≈ −9; random policy scores ≈ −180.
  EXPECT_GT(stats.back().mean_return, -40.0);
  // Deterministic evaluation should park next to x = 3.
  Rng eval_rng(11);
  const auto eval = evaluate(env, PolicyHandle::snapshot(trainer.policy()),
                             20, eval_rng);
  EXPECT_GT(eval.returns.mean, -30.0);
  EXPECT_GT(eval.success_rate, 0.8);
}

TEST(Ppo, IntrinsicHookReceivesRolloutAndScalesAdvantage) {
  LineEnv env;
  PpoOptions opts;
  opts.steps_per_iter = 256;
  PpoTrainer trainer(env, opts, Rng(5));
  int calls = 0;
  std::size_t seen = 0;
  trainer.set_intrinsic_hook([&](RolloutBuffer& buf) {
    ++calls;
    seen = buf.size();
    for (auto& r : buf.rew_i) r = 1.0;
    return 0.5;
  });
  const auto s = trainer.iterate();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(seen, 256u);
  EXPECT_DOUBLE_EQ(s.tau, 0.5);
  EXPECT_DOUBLE_EQ(s.mean_intrinsic, 1.0);
}

TEST(Ppo, DeterministicGivenSeed) {
  LineEnv env;
  PpoOptions opts;
  opts.steps_per_iter = 256;
  PpoTrainer a(env, opts, Rng(9)), b(env, opts, Rng(9));
  const auto sa = a.iterate();
  const auto sb = b.iterate();
  EXPECT_DOUBLE_EQ(sa.mean_return, sb.mean_return);
  EXPECT_EQ(a.policy().flat_params(), b.policy().flat_params());
}

TEST(Ppo, SetEnvRejectsMismatchedSpaces) {
  LineEnv env;
  PpoTrainer trainer(env, {}, Rng(1));
  class WrongEnv : public LineEnv {
   public:
    std::size_t obs_dim() const override { return 2; }
  };
  WrongEnv wrong;
  EXPECT_THROW(trainer.set_env(wrong), CheckError);
}

TEST(Evaluate, CountsSuccessesAndLengths) {
  LineEnv env;
  Rng rng(3);
  // A hand-written optimal controller.
  const auto stats = evaluate(
      env, ActionFn([](const std::vector<double>& o) {
        return std::vector<double>{o[0] < 3.0 ? 1.0 : -1.0};
      }),
      10, rng);
  EXPECT_EQ(stats.episode_returns.size(), 10u);
  EXPECT_DOUBLE_EQ(stats.success_rate, 1.0);
  EXPECT_DOUBLE_EQ(stats.mean_length, 60.0);
  EXPECT_GT(stats.returns.mean, -30.0);
}

TEST(Evaluate, TrajectoryEndsAtBoundary) {
  LineEnv env;
  Rng rng(3);
  const auto traj = rollout_trajectory(
      env, ActionFn([](const std::vector<double>&) {
        return std::vector<double>{0.0};
      }),
      rng);
  EXPECT_EQ(traj.size(), 61u);  // initial obs + 60 steps (truncation)
}

}  // namespace
}  // namespace imap::rl
