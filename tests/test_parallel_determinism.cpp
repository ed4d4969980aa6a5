// The determinism contract of the parallel execution layer: structural
// options (worker count K, slots per worker E) fix the numeric trace, the
// thread count never does. Everything here compares serial execution
// (ScopedSerial) against a real 4-thread pool (ScopedPool) bit-for-bit.

#include <gtest/gtest.h>

#include <filesystem>
#include <vector>

#include "common/thread_pool.h"
#include "core/experiment.h"
#include "core/regularizer.h"
#include "env/registry.h"
#include "rl/ppo.h"

namespace imap {
namespace {

std::vector<rl::IterStats> run_trainer(const rl::PpoOptions& opts, int iters,
                                       std::vector<double>& final_params) {
  auto env = env::make_env("Hopper");
  rl::PpoTrainer trainer(*env, opts, Rng(7));
  std::vector<rl::IterStats> out;
  for (int i = 0; i < iters; ++i) out.push_back(trainer.iterate());
  final_params = trainer.policy().flat_params();
  return out;
}

void expect_identical(const std::vector<rl::IterStats>& a,
                      const std::vector<rl::IterStats>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].mean_return, b[i].mean_return) << "iter " << i;
    EXPECT_EQ(a[i].mean_surrogate, b[i].mean_surrogate) << "iter " << i;
    EXPECT_EQ(a[i].episodes, b[i].episodes) << "iter " << i;
    EXPECT_EQ(a[i].policy_loss, b[i].policy_loss) << "iter " << i;
    EXPECT_EQ(a[i].value_loss, b[i].value_loss) << "iter " << i;
    EXPECT_EQ(a[i].approx_kl, b[i].approx_kl) << "iter " << i;
    EXPECT_EQ(a[i].entropy, b[i].entropy) << "iter " << i;
  }
}

TEST(ParallelDeterminism, PpoTraceIdenticalFor1And4Threads) {
  rl::PpoOptions opts;
  opts.steps_per_iter = 512;
  opts.num_workers = 4;

  std::vector<double> serial_params, pooled_params;
  std::vector<rl::IterStats> serial_stats, pooled_stats;
  {
    ScopedSerial serial;
    serial_stats = run_trainer(opts, 3, serial_params);
  }
  {
    ThreadPool pool(4);
    ScopedPool scope(pool);
    pooled_stats = run_trainer(opts, 3, pooled_params);
  }
  expect_identical(serial_stats, pooled_stats);
  EXPECT_EQ(serial_params, pooled_params);
}

TEST(ParallelDeterminism, LegacySerialOptionsUnaffectedByPool) {
  // The library defaults (K·E = 1: one lockstep slot on the trainer stream)
  // are what production trainers run; a pool must not change a single bit
  // of them.
  rl::PpoOptions opts;
  opts.steps_per_iter = 512;

  std::vector<double> serial_params, pooled_params;
  std::vector<rl::IterStats> serial_stats, pooled_stats;
  {
    ScopedSerial serial;
    serial_stats = run_trainer(opts, 2, serial_params);
  }
  {
    ThreadPool pool(4);
    ScopedPool scope(pool);
    pooled_stats = run_trainer(opts, 2, pooled_params);
  }
  expect_identical(serial_stats, pooled_stats);
  EXPECT_EQ(serial_params, pooled_params);
}

TEST(ParallelDeterminism, KnnQueriesIdenticalFor1And4Threads) {
  // KnnBuffer scans have no threads of their own: the PC and SC regularizers
  // split their rollout queries across the pool, one batched scan per range.
  // Their bonuses must not depend on that split. Both run single-agent and
  // with two slices (Eq. 7 / Eq. 9); three 600-row rollouts push each PC
  // union buffer (capacity 1024) past capacity into reservoir replacement.
  constexpr std::size_t obs_dim = 11, act_dim = 2, rows = 600;
  Rng policy_rng(99);
  const nn::GaussianPolicy policy(obs_dim, act_dim, {8}, policy_rng);
  ThreadPool pool(4);

  auto bonuses = [&](const core::RegularizerOptions& opts, bool pooled) {
    auto reg = core::make_regularizer(opts, obs_dim, act_dim, Rng(5));
    Rng data(17);
    std::vector<std::vector<double>> out;
    for (int it = 0; it < 3; ++it) {
      rl::RolloutBuffer buf;
      for (std::size_t i = 0; i < rows; ++i)
        buf.add(data.normal_vec(obs_dim), {0.0, 0.0}, 0.0, 0.0, 0.0);
      if (pooled) {
        ScopedPool scope(pool);
        reg->compute(buf, policy);
      } else {
        ScopedSerial serial;
        reg->compute(buf, policy);
      }
      out.push_back(buf.rew_i);
    }
    return out;
  };

  for (const auto type : {core::RegularizerType::PC, core::RegularizerType::SC})
    for (const bool two_slices : {false, true}) {
      core::RegularizerOptions opts;
      opts.type = type;
      opts.pc_capacity = 1024;
      if (two_slices) {
        opts.adversary_slice = {0, 6};
        opts.victim_slice = {6, obs_dim};
      }
      EXPECT_EQ(bonuses(opts, false), bonuses(opts, true))
          << core::to_string(type)
          << (two_slices ? " two slices" : " single agent");
    }
}

TEST(ParallelDeterminism, ExperimentCellIdenticalFor1And4Threads) {
  // One tiny table cell end-to-end (victim training, SA-RL attack, eval),
  // run from scratch in separate zoo dirs so the result cache cannot mask a
  // divergence.
  auto run_cell = [](const std::string& zoo_dir) {
    std::filesystem::remove_all(zoo_dir);
    BenchConfig cfg;
    cfg.zoo_dir = zoo_dir;
    cfg.scale = 0.01;
    cfg.seed = 7;
    core::ExperimentRunner runner(cfg);
    core::AttackPlan plan;
    plan.env_name = "FetchReach";
    plan.attack = core::AttackKind::SaRl;
    plan.attack_steps = 4096;
    plan.eval_episodes = 5;
    const auto out = runner.run(plan);
    std::filesystem::remove_all(zoo_dir);
    return out;
  };

  core::AttackOutcome serial_out, pooled_out;
  {
    ScopedSerial serial;
    serial_out = run_cell("/tmp/imap_test_pdet_serial");
  }
  {
    ThreadPool pool(4);
    ScopedPool scope(pool);
    pooled_out = run_cell("/tmp/imap_test_pdet_pool");
  }
  EXPECT_EQ(serial_out.victim_eval.episode_returns,
            pooled_out.victim_eval.episode_returns);
  EXPECT_EQ(serial_out.victim_eval.returns.mean,
            pooled_out.victim_eval.returns.mean);
  ASSERT_EQ(serial_out.curve.size(), pooled_out.curve.size());
  for (std::size_t i = 0; i < serial_out.curve.size(); ++i)
    EXPECT_EQ(serial_out.curve[i].victim_success,
              pooled_out.curve[i].victim_success);
}

}  // namespace
}  // namespace imap
