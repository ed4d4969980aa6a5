// The determinism contract of the parallel execution layer: structural
// options (worker count K, slots per worker E) fix the numeric trace, the
// thread count never does. Everything here compares serial execution
// (ScopedSerial) against a real 4-thread pool (ScopedPool) bit-for-bit.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/serialize.h"
#include "common/thread_pool.h"
#include "core/experiment.h"
#include "core/regularizer.h"
#include "defense/sa_regularizer.h"
#include "env/registry.h"
#include "rl/ppo.h"
#include "temp_dir.h"

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

// --- the update's chain schedule --------------------------------------------
// PpoTrainer::update steps each network as one chain per epoch, on a
// participant picked by the schedule. Every network must come out with the
// same bits on any pool: parameters, Adam moments (inside the trainer's
// snapshot archive, with the Rng streams and the rollout slots) and stats.

/// What one schedule run leaves behind.
struct ChainRun {
  std::vector<double> policy, value_e, value_i;
  std::vector<std::uint8_t> state;  ///< PpoTrainer::save_state archive
  std::vector<rl::IterStats> stats;
  /// Archives saved right after each iterate(), when snapshotted.
  std::vector<std::vector<std::uint8_t>> mid_states;
};

/// Two iterations of a small Hopper trainer (8 minibatches of 64, three
/// epochs), with the intrinsic channel on or off and the SA smoothness hook
/// installed or not. `pool` = nullptr runs under ScopedSerial. With
/// `snapshot` the trainer is saved right after each iterate(), while the
/// intrinsic chain that update() left is still pending.
ChainRun run_chain_schedule(bool intrinsic, bool sa_hook, ThreadPool* pool,
                            bool snapshot = false) {
  std::optional<ScopedSerial> serial;
  std::optional<ScopedPool> scope;
  if (pool == nullptr)
    serial.emplace();
  else
    scope.emplace(*pool);
  auto env = env::make_env("Hopper");
  rl::PpoOptions opts;
  opts.hidden = {16, 16};
  opts.steps_per_iter = 512;
  opts.minibatch = 64;
  opts.epochs = 3;
  opts.ent_coef = 0.01;
  rl::PpoTrainer trainer(*env, opts, Rng(21));
  if (intrinsic) {
    // A deterministic bonus from the observations, at τ = 0.3.
    trainer.set_intrinsic_hook([](rl::RolloutBuffer& buf) {
      for (std::size_t i = 0; i < buf.size(); ++i)
        buf.rew_i[i] = std::tanh(buf.obs[i][0] + 0.5 * buf.obs[i][1]);
      return 0.3;
    });
  }
  if (sa_hook)
    trainer.set_regularizer_hook(
        defense::make_smoothness_hook(0.05, 0.1, /*pgd_steps=*/1, Rng(5)));
  ChainRun out;
  for (int i = 0; i < 2; ++i) {
    out.stats.push_back(trainer.iterate());
    if (snapshot) {
      ArchiveWriter mid;
      trainer.save_state(mid);
      out.mid_states.push_back(mid.bytes());
    }
  }
  out.policy = trainer.policy().flat_params();
  out.value_e = trainer.value_e().params();
  out.value_i = trainer.value_i().params();
  ArchiveWriter a;
  trainer.save_state(a);
  out.state = a.bytes();
  return out;
}

class PpoChainSchedule
    : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(PpoChainSchedule, EveryNetworkBitEqualOnAnyPool) {
  const auto [intrinsic, sa_hook] = GetParam();
  const ChainRun ref = run_chain_schedule(intrinsic, sa_hook, nullptr);
  // Snapshots taken while the intrinsic chain is pending join it early; the
  // archives must not depend on the pool, and the run must end the same.
  const ChainRun ref_snap =
      run_chain_schedule(intrinsic, sa_hook, nullptr, /*snapshot=*/true);
  ASSERT_EQ(ref_snap.mid_states.size(), 2u);
  EXPECT_EQ(ref.state, ref_snap.state);
  for (std::size_t threads = 1; threads <= 4; ++threads) {
    SCOPED_TRACE("ThreadPool(" + std::to_string(threads) + ")");
    ThreadPool pool(threads);
    const ChainRun got = run_chain_schedule(intrinsic, sa_hook, &pool);
    EXPECT_EQ(ref.policy, got.policy);
    EXPECT_EQ(ref.value_e, got.value_e);
    EXPECT_EQ(ref.value_i, got.value_i);
    EXPECT_EQ(ref.state, got.state) << "Adam moments, Rng or slot state";
    expect_identical(ref.stats, got.stats);
    const ChainRun snap =
        run_chain_schedule(intrinsic, sa_hook, &pool, /*snapshot=*/true);
    EXPECT_EQ(ref_snap.mid_states, snap.mid_states)
        << "archive saved with the intrinsic chain pending";
    EXPECT_EQ(ref.state, snap.state);
    expect_identical(ref.stats, snap.stats);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ChannelsAndHooks, PpoChainSchedule,
    ::testing::Combine(::testing::Bool(), ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<bool, bool>>& p) {
      return std::string(std::get<0>(p.param) ? "Intrinsic" : "Extrinsic") +
             (std::get<1>(p.param) ? "SaHook" : "NoHook");
    });

/// Where a NaN enters the update: a reward of either channel (caught by
/// GAE before the gates open), an old log-prob (caught inside the policy
/// chain while the critic chains run on) or an observation (caught by every
/// chain's first forward).
enum class NanAt { Reward, IntrinsicReward, OldLogProb, Observation };

void expect_nan_update_ends(NanAt where) {
  ThreadPool pool(2);
  ScopedPool scope(pool);
  auto env = env::make_env("Hopper");
  rl::PpoOptions opts;
  opts.hidden = {16, 16};
  opts.steps_per_iter = 512;
  opts.minibatch = 64;
  opts.epochs = 2;
  rl::PpoTrainer trainer(*env, opts, Rng(3));
  // Installing a hook turns the intrinsic channel on; update() never calls
  // it.
  if (where == NanAt::IntrinsicReward)
    trainer.set_intrinsic_hook([](rl::RolloutBuffer&) { return 0.0; });
  rl::RolloutBuffer buf;
  trainer.collect(buf);
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  switch (where) {
    case NanAt::Reward: buf.rew_e[100] = kNan; break;
    case NanAt::IntrinsicReward: buf.rew_i[100] = kNan; break;
    case NanAt::OldLogProb: buf.logp[300] = kNan; break;
    case NanAt::Observation: buf.obs[200][0] = kNan; break;
  }
  rl::IterStats stats;
#ifdef IMAP_CHECK_NUMERICS
  // The library's guards are compiled in: the update throws, whichever
  // chain meets the NaN, instead of leaving a participant waiting.
  EXPECT_THROW(trainer.update(buf, 0.0, stats), NumericError);
#else
  // Without guards the NaN flows through and the update still returns.
  EXPECT_NO_THROW(trainer.update(buf, 0.0, stats));
  const bool policy_side =
      where == NanAt::OldLogProb || where == NanAt::IntrinsicReward;
  EXPECT_TRUE(std::isnan(policy_side ? stats.approx_kl : stats.value_loss));
#endif
  // Whatever the update left of the intrinsic chain joins without hanging.
  EXPECT_NO_THROW(trainer.value_i());
}

TEST(PpoChainNumerics, NanRewardEndsTheUpdateOnTwoThreads) {
  expect_nan_update_ends(NanAt::Reward);
}

TEST(PpoChainNumerics, NanIntrinsicRewardEndsTheUpdateOnTwoThreads) {
  expect_nan_update_ends(NanAt::IntrinsicReward);
}

TEST(PpoChainNumerics, NanOldLogProbEndsTheUpdateOnTwoThreads) {
  expect_nan_update_ends(NanAt::OldLogProb);
}

TEST(PpoChainNumerics, NanObservationEndsTheUpdateOnTwoThreads) {
  expect_nan_update_ends(NanAt::Observation);
}

// --- the pending intrinsic chain ---------------------------------------------
// update() returns with the intrinsic critic's chain still open; it runs
// beside the next rollout and every join finishes it. A failure inside it
// surfaces at the next join, and no join or destructor waits forever.

/// A small Hopper trainer with the intrinsic channel on; its bonus puts
/// `spike` at one step of every rollout.
std::unique_ptr<rl::PpoTrainer> lane_trainer(const rl::Env& env,
                                             double spike) {
  rl::PpoOptions opts;
  opts.hidden = {16, 16};
  opts.steps_per_iter = 512;
  opts.minibatch = 64;
  opts.epochs = 2;
  auto trainer = std::make_unique<rl::PpoTrainer>(env, opts, Rng(3));
  trainer->set_intrinsic_hook([spike](rl::RolloutBuffer& buf) {
    for (std::size_t i = 0; i < buf.size(); ++i)
      buf.rew_i[i] = std::tanh(buf.obs[i][0]);
    buf.rew_i[buf.size() / 2] = spike;
    return 0.5;
  });
  return trainer;
}

TEST(PpoChainNumerics, IntrinsicChainFailureSurfacesAtTheNextJoin) {
  // A finite spike passes GAE and leaves the policy and the extrinsic critic
  // alone, but its square overflows the intrinsic critic's loss: only the
  // pending chain fails. Run on the pool and serially (where the chain runs
  // entirely inside the join).
  auto env = env::make_env("Hopper");
  for (const bool pooled : {true, false}) {
    SCOPED_TRACE(pooled ? "ThreadPool(2)" : "ScopedSerial");
    ThreadPool pool(2);
    std::optional<ScopedPool> scope;
    std::optional<ScopedSerial> serial;
    if (pooled)
      scope.emplace(pool);
    else
      serial.emplace();
    auto trainer = lane_trainer(*env, 1e200);
    rl::IterStats stats;
    ASSERT_NO_THROW(stats = trainer->iterate());
    EXPECT_TRUE(std::isfinite(stats.value_loss));
#ifdef IMAP_CHECK_NUMERICS
    EXPECT_THROW(trainer->value_i(), NumericError);
#else
    EXPECT_NO_THROW(trainer->value_i());
#endif
    // Reported once; later joins return.
    EXPECT_NO_THROW(trainer->value_i());
  }
}

TEST(PpoChainLanes, DestructorReturnsWithAPendingOrFailedChain) {
  auto env = env::make_env("Hopper");
  for (std::size_t threads = 1; threads <= 4; threads += 3) {
    SCOPED_TRACE("ThreadPool(" + std::to_string(threads) + ")");
    ThreadPool pool(threads);
    ScopedPool scope(pool);
    auto pending = lane_trainer(*env, 0.0);
    pending->iterate();
    pending.reset();  // the chain is still open
    auto failed = lane_trainer(*env, 1e200);
    failed->iterate();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    failed.reset();  // the chain may have failed on the helper
  }
}

TEST(PpoChainLanes, BusyPoolCannotHoldUpTheJoin) {
  // Every worker of the pool is blocked until the trainer is done, so the
  // helper update() submits never starts: each join steps what is left.
  ThreadPool pool(2);
  ScopedPool scope(pool);
  std::atomic<bool> release{false};
  pool.submit([&] {
    while (!release) std::this_thread::yield();
  });
  auto env = env::make_env("Hopper");
  auto trainer = lane_trainer(*env, 0.0);
  for (int i = 0; i < 2; ++i) trainer->iterate();
  const std::vector<double> value_i = trainer->value_i().params();
  release = true;
  trainer.reset();

  ScopedSerial serial;
  auto reference = lane_trainer(*env, 0.0);
  for (int i = 0; i < 2; ++i) reference->iterate();
  EXPECT_EQ(value_i, reference->value_i().params());
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

  const std::string dir = testing::unique_temp_dir("imap_test_pdet");
  core::AttackOutcome serial_out, pooled_out;
  {
    ScopedSerial serial;
    serial_out = run_cell(dir + "_serial");
  }
  {
    ThreadPool pool(4);
    ScopedPool scope(pool);
    pooled_out = run_cell(dir + "_pool");
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
