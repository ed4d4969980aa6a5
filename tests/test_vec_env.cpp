// The determinism contract of the vectorized rollout engine: the lockstep
// batched collection (one policy/value/victim forward per tick) fills
// buffers bit-identical to E independent one-slot engines, for any E, any
// thread count and any (workers × slots) factorization of the total.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "attack/threat_model.h"
#include "common/thread_pool.h"
#include "env/multiagent.h"
#include "env/registry.h"
#include "nn/gaussian.h"
#include "rl/normalizer.h"
#include "rl/ppo.h"
#include "rl/vec_env.h"
#include "scenario/scenario_env.h"
#include "scenario/spec.h"

namespace imap {
namespace {

std::vector<Rng> make_streams(std::size_t e, std::uint64_t seed) {
  Rng base(seed);
  std::vector<Rng> streams;
  for (std::size_t i = 0; i < e; ++i)
    streams.push_back(base.split(0x100 + static_cast<std::uint64_t>(i)));
  return streams;
}

void expect_buffers_identical(const rl::RolloutBuffer& a,
                              const rl::RolloutBuffer& b) {
  ASSERT_EQ(a.size(), b.size());
  // obs/act may hold spare rows past size(); only the valid prefix counts.
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.obs[i], b.obs[i]) << "obs row " << i;
    EXPECT_EQ(a.act[i], b.act[i]) << "act row " << i;
  }
  EXPECT_EQ(a.logp, b.logp);
  EXPECT_EQ(a.rew_e, b.rew_e);
  EXPECT_EQ(a.val_e, b.val_e);
  EXPECT_EQ(a.done, b.done);
  EXPECT_EQ(a.boundary, b.boundary);
  EXPECT_EQ(a.last_val_e, b.last_val_e);
  EXPECT_EQ(a.last_val_i, b.last_val_i);
  EXPECT_EQ(a.episode_returns, b.episode_returns);
  EXPECT_EQ(a.episode_surrogate, b.episode_surrogate);
  EXPECT_EQ(a.episode_lengths, b.episode_lengths);
}

/// One one-slot engine per stream: engine i alone is the reference for
/// slot i of a lockstep engine configured with the same streams.
std::vector<rl::VecEnv> one_slot_engines(const rl::Env& proto,
                                         const std::vector<Rng>& streams) {
  std::vector<rl::VecEnv> refs(streams.size());
  for (std::size_t i = 0; i < streams.size(); ++i)
    refs[i].configure(proto, {streams[i]});
  return refs;
}

/// Engine i collects budgets[i] steps (offset i into the shared budgets).
void collect_each(std::vector<rl::VecEnv>& refs,
                  const nn::GaussianPolicy& policy,
                  const nn::ValueNet& value_e, const nn::ValueNet& value_i,
                  const std::vector<int>& budgets) {
  for (std::size_t i = 0; i < refs.size(); ++i)
    refs[i].collect(policy, value_e, value_i, budgets, i);
}

/// Run an E-slot collect() and E one-slot collect()s over `proto` on the
/// same streams and require every slot's buffer to match bitwise.
void expect_lockstep_matches_one_slot(const rl::Env& proto, std::size_t e,
                                      int steps_per_slot) {
  Rng net_rng(17);
  nn::GaussianPolicy policy(proto.obs_dim(), proto.act_dim(), {16, 16},
                            net_rng);
  nn::ValueNet value_e(proto.obs_dim(), {16, 16}, net_rng);
  nn::ValueNet value_i(proto.obs_dim(), {16, 16}, net_rng);

  rl::VecEnv vec;
  vec.configure(proto, make_streams(e, 23));
  auto refs = one_slot_engines(proto, make_streams(e, 23));

  const std::vector<int> budgets(e, steps_per_slot);
  // Two rounds: the second starts from persisted mid-episode state, so the
  // cross-call episode carry is covered too.
  for (int round = 0; round < 2; ++round) {
    vec.collect(policy, value_e, value_i, budgets, 0);
    collect_each(refs, policy, value_e, value_i, budgets);
    for (std::size_t i = 0; i < e; ++i) {
      SCOPED_TRACE("round " + std::to_string(round) + " slot " +
                   std::to_string(i));
      expect_buffers_identical(vec.slot(i).buf, refs[i].slot(0).buf);
      EXPECT_EQ(vec.slot(i).ep_successes, refs[i].slot(0).ep_successes);
    }
  }
}

TEST(VecEnv, LockstepMatchesSerialOnDenseTask) {
  const auto env = env::make_env("Hopper");
  for (const std::size_t e : {std::size_t{1}, std::size_t{4}, std::size_t{16}})
    expect_lockstep_matches_one_slot(*env, e, 96);
}

TEST(VecEnv, LockstepMatchesSerialOnSparseTask) {
  const auto env = env::make_env("SparseHopper");
  for (const std::size_t e : {std::size_t{1}, std::size_t{4}, std::size_t{16}})
    expect_lockstep_matches_one_slot(*env, e, 96);
}

TEST(VecEnv, RaggedBudgetsKeepLiveSlotsAPrefix) {
  const auto env = env::make_env("Hopper");
  Rng net_rng(29);
  nn::GaussianPolicy policy(env->obs_dim(), env->act_dim(), {16, 16}, net_rng);
  nn::ValueNet value_e(env->obs_dim(), {16, 16}, net_rng);
  nn::ValueNet value_i(env->obs_dim(), {16, 16}, net_rng);

  rl::VecEnv vec;
  vec.configure(*env, make_streams(4, 31));
  auto refs = one_slot_engines(*env, make_streams(4, 31));

  // Non-increasing, including a zero-budget slot (must stay untouched).
  const std::vector<int> budgets{70, 70, 33, 0};
  vec.collect(policy, value_e, value_i, budgets, 0);
  collect_each(refs, policy, value_e, value_i, budgets);
  for (std::size_t i = 0; i < 4; ++i) {
    SCOPED_TRACE("slot " + std::to_string(i));
    expect_buffers_identical(vec.slot(i).buf, refs[i].slot(0).buf);
  }
  EXPECT_EQ(vec.slot(3).buf.size(), 0u);
}

TEST(VecEnv, BatchedVictimPathMatchesSerialOnStatePerturbation) {
  // The threat model splits its step around a network-backed frozen victim,
  // so collect() also batches the victim queries — still bitwise.
  const auto inner = env::make_env("Hopper");
  Rng victim_rng(41);
  nn::GaussianPolicy victim(inner->obs_dim(), inner->act_dim(), {16, 16},
                            victim_rng);
  scenario::ScenarioEnv proto(*inner,
                              scenario::state_perturbation("Hopper", 0.075),
                              rl::PolicyHandle::snapshot(victim),
                              scenario::RewardMode::Adversary);
  expect_lockstep_matches_one_slot(proto, 8, 80);
}

TEST(VecEnv, OpaqueVictimCollectsSameTraceAsNetworkHandle) {
  // An ActionFn-shaped victim disables victim batching but must produce the
  // same trace: per-sample PolicyHandle queries are bit-identical either way.
  const auto inner = env::make_env("Hopper");
  Rng victim_rng(43);
  auto victim = std::make_shared<nn::GaussianPolicy>(
      inner->obs_dim(), inner->act_dim(), std::vector<std::size_t>{16, 16},
      victim_rng);
  const rl::PolicyHandle handle(victim);
  const auto threat = scenario::state_perturbation("Hopper", 0.075);
  scenario::ScenarioEnv net_proto(*inner, threat, handle,
                                  scenario::RewardMode::Adversary);
  scenario::ScenarioEnv fn_proto(
      *inner, threat,
      rl::ActionFn([handle](const std::vector<double>& o) {
        return handle.query(o);
      }),
      scenario::RewardMode::Adversary);

  Rng net_rng(47);
  nn::GaussianPolicy policy(net_proto.obs_dim(), net_proto.act_dim(), {16, 16},
                            net_rng);
  nn::ValueNet value_e(net_proto.obs_dim(), {16, 16}, net_rng);
  nn::ValueNet value_i(net_proto.obs_dim(), {16, 16}, net_rng);

  rl::VecEnv batched, opaque;
  batched.configure(net_proto, make_streams(6, 53));
  opaque.configure(fn_proto, make_streams(6, 53));
  const std::vector<int> budgets(6, 64);
  batched.collect(policy, value_e, value_i, budgets, 0);
  opaque.collect(policy, value_e, value_i, budgets, 0);
  for (std::size_t i = 0; i < 6; ++i) {
    SCOPED_TRACE("slot " + std::to_string(i));
    expect_buffers_identical(batched.slot(i).buf, opaque.slot(i).buf);
  }
}

TEST(VecEnv, BatchedVictimPathMatchesSerialOnOpponentGame) {
  const auto game = env::make_multiagent_env("YouShallNotPass");
  Rng victim_rng(59);
  nn::GaussianPolicy victim(game->victim_obs_dim(), game->victim_act_dim(),
                            {16, 16}, victim_rng);
  attack::OpponentEnv proto(*game, rl::PolicyHandle::snapshot(victim));
  expect_lockstep_matches_one_slot(proto, 8, 80);
}

std::vector<rl::IterStats> run_trainer(const rl::Env& proto,
                                       const rl::PpoOptions& opts, int iters,
                                       std::vector<double>& final_params) {
  rl::PpoTrainer trainer(proto, opts, Rng(7));
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

TEST(VecEnv, TrainerTraceIdenticalFor1And4Threads) {
  rl::PpoOptions opts;
  opts.steps_per_iter = 512;
  opts.num_workers = 2;
  opts.envs_per_worker = 4;

  const auto env = env::make_env("Hopper");
  std::vector<double> serial_params, pooled_params;
  std::vector<rl::IterStats> serial_stats, pooled_stats;
  {
    ScopedSerial serial;
    serial_stats = run_trainer(*env, opts, 3, serial_params);
  }
  {
    ThreadPool pool(4);
    ScopedPool scope(pool);
    pooled_stats = run_trainer(*env, opts, 3, pooled_params);
  }
  expect_identical(serial_stats, pooled_stats);
  EXPECT_EQ(serial_params, pooled_params);
}

void expect_factorization_invariant(const rl::Env& proto) {
  // 4 total envs as 4×1, 2×2 and 1×4 — same global slot streams, same merge
  // order, so the whole training trace must agree bitwise. steps_per_iter is
  // chosen to exercise the uneven-budget remainder (130 = 33+33+32+32).
  const std::vector<std::pair<int, int>> shapes{{4, 1}, {2, 2}, {1, 4}};
  std::vector<std::vector<rl::IterStats>> stats(shapes.size());
  std::vector<std::vector<double>> params(shapes.size());
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    rl::PpoOptions opts;
    opts.steps_per_iter = 130;
    opts.num_workers = shapes[i].first;
    opts.envs_per_worker = shapes[i].second;
    stats[i] = run_trainer(proto, opts, 2, params[i]);
  }
  for (std::size_t i = 1; i < shapes.size(); ++i) {
    SCOPED_TRACE("factorization " + std::to_string(shapes[i].first) + "x" +
                 std::to_string(shapes[i].second));
    expect_identical(stats[0], stats[i]);
    EXPECT_EQ(params[0], params[i]);
  }
}

TEST(VecEnv, TrainerTraceInvariantAcrossWorkerSlotFactorizations) {
  {
    SCOPED_TRACE("Hopper");
    expect_factorization_invariant(*env::make_env("Hopper"));
  }
  {
    // Opponent control: the frozen victim acts inside every slot's step.
    SCOPED_TRACE("YouShallNotPass opponent");
    const auto game = env::make_multiagent_env("YouShallNotPass");
    Rng vr(11);
    nn::GaussianPolicy victim(game->victim_obs_dim(), game->victim_act_dim(),
                              {16, 16}, vr);
    attack::OpponentEnv proto(*game, rl::PolicyHandle::snapshot(victim));
    expect_factorization_invariant(proto);
  }
  {
    // A procedurally randomized scenario (seeded DR, stochastic channels,
    // budget) draws everything from the slot Rng.
    SCOPED_TRACE("randomized scenario");
    const auto spec = scenario::parse(
        "hopper+obs_perturb:0.075+obs_delay:2+obs_dropout:0.2+obs_noise:0.05"
        "+budget:0.5+dr[gain:0.9..1.1,mass:0.8..1.2]@7");
    const auto inner = env::make_env(spec.env);
    Rng vr(11);
    nn::GaussianPolicy victim(inner->obs_dim(), inner->act_dim(), {16, 16},
                              vr);
    const scenario::ScenarioEnv proto(*inner, spec,
                                      rl::PolicyHandle::snapshot(victim),
                                      scenario::RewardMode::Adversary);
    expect_factorization_invariant(proto);
  }
}

TEST(VecNormalizer, SingleRowBatchUpdateIsBitwiseEqual) {
  Rng rng(61);
  rl::VecNormalizer step(5), batch(5);
  nn::Batch row;
  row.resize(1, 5);
  for (int t = 0; t < 50; ++t) {
    const auto x = rng.normal_vec(5, 0.5, 2.0);
    row.set_row(0, x);
    step.update(x);
    batch.update_batch(row);
  }
  EXPECT_EQ(step.count(), batch.count());
  EXPECT_EQ(step.mean(), batch.mean());
  EXPECT_EQ(step.variance(), batch.variance());
}

TEST(VecNormalizer, BatchUpdateMatchesPerStepToMergeTolerance) {
  // Chan/Welford parallel merge reassociates the per-step sums; the moments
  // must agree with the streaming reference to tight relative tolerance.
  Rng rng(67);
  rl::VecNormalizer step(7), batch(7);
  nn::Batch rows;
  for (int tick = 0; tick < 40; ++tick) {
    const std::size_t e = 1 + static_cast<std::size_t>(tick % 16);
    rows.resize(e, 7);
    for (std::size_t r = 0; r < e; ++r) {
      const auto x = rng.normal_vec(7, -1.0, 3.0);
      rows.set_row(r, x);
      step.update(x);
    }
    batch.update_batch(rows);
  }
  ASSERT_EQ(step.count(), batch.count());
  const auto sv = step.variance(), bv = batch.variance();
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_NEAR(step.mean()[i], batch.mean()[i],
                1e-12 * (1.0 + std::abs(step.mean()[i])));
    EXPECT_NEAR(sv[i], bv[i], 1e-10 * (1.0 + sv[i]));
  }
}

TEST(VecEnv, ObsNormalizerSeesTheSameStreamOnBothPaths) {
  const auto env = env::make_env("Hopper");
  Rng net_rng(71);
  nn::GaussianPolicy policy(env->obs_dim(), env->act_dim(), {16, 16}, net_rng);
  nn::ValueNet value_e(env->obs_dim(), {16, 16}, net_rng);
  nn::ValueNet value_i(env->obs_dim(), {16, 16}, net_rng);

  rl::VecEnv vec;
  vec.configure(*env, make_streams(4, 73));
  auto refs = one_slot_engines(*env, make_streams(4, 73));
  rl::VecNormalizer vec_norm(env->obs_dim()), ref_norm(env->obs_dim());
  vec.set_obs_normalizer(&vec_norm);
  for (auto& ref : refs) ref.set_obs_normalizer(&ref_norm);

  const std::vector<int> budgets(4, 64);
  vec.collect(policy, value_e, value_i, budgets, 0);
  collect_each(refs, policy, value_e, value_i, budgets);

  // Both sides fold the same observation multiset (tick-major vs slot-major
  // order), so the merged moments agree to merge tolerance — and the buffers
  // stay bit-identical (the tracker is telemetry only).
  ASSERT_EQ(vec_norm.count(), ref_norm.count());
  const auto vv = vec_norm.variance(), rv = ref_norm.variance();
  for (std::size_t i = 0; i < vec_norm.dim(); ++i) {
    EXPECT_NEAR(vec_norm.mean()[i], ref_norm.mean()[i],
                1e-12 * (1.0 + std::abs(ref_norm.mean()[i])));
    EXPECT_NEAR(vv[i], rv[i], 1e-10 * (1.0 + rv[i]));
  }
  for (std::size_t i = 0; i < 4; ++i)
    expect_buffers_identical(vec.slot(i).buf, refs[i].slot(0).buf);
}

TEST(GaussianPolicy, SampleStatisticsMatchParameters) {
  // collect() samples a ~ N(μ(s), diag(exp(log_std))²) from each slot's
  // stream: the standardized residuals (a − μ(s))·exp(−log_std) of the
  // recorded actions must be ≈ N(0, 1) in every action dim.
  const auto env = env::make_env("Hopper");
  Rng net_rng(9);
  nn::GaussianPolicy policy(env->obs_dim(), env->act_dim(), {16}, net_rng,
                            /*init_log_std=*/-0.5);
  nn::ValueNet value_e(env->obs_dim(), {16}, net_rng);
  nn::ValueNet value_i(env->obs_dim(), {16}, net_rng);
  rl::VecEnv vec;
  vec.configure(*env, make_streams(4, 19));
  vec.collect(policy, value_e, value_i, std::vector<int>(4, 5000), 0);

  const std::size_t adim = env->act_dim();
  std::vector<double> sum(adim, 0.0), sum2(adim, 0.0);
  double n = 0.0;
  nn::Mlp::Workspace ws;
  nn::Batch obs;
  for (std::size_t i = 0; i < vec.size(); ++i) {
    const rl::RolloutBuffer& buf = vec.slot(i).buf;
    obs.gather_range(buf.obs, 0, buf.size());
    const nn::Batch& mu = policy.mean_batch(obs, ws);
    for (std::size_t t = 0; t < buf.size(); ++t) {
      for (std::size_t d = 0; d < adim; ++d) {
        const double z =
            (buf.act[t][d] - mu(t, d)) * std::exp(-policy.log_std()[d]);
        sum[d] += z;
        sum2[d] += z * z;
      }
      n += 1.0;
    }
  }
  ASSERT_EQ(n, 20000.0);
  for (std::size_t d = 0; d < adim; ++d) {
    EXPECT_NEAR(sum[d] / n, 0.0, 0.03) << "dim " << d;
    EXPECT_NEAR(std::sqrt(sum2[d] / n), 1.0, 0.03) << "dim " << d;
  }
}

}  // namespace
}  // namespace imap
