// Micro-benchmarks of the RL substrate: environment stepping, the batched
// nn kernels (the tanh activation and the Adam update per backend), rollout
// collection and PPO training throughput — the cost model behind the bench
// budgets. The PPO cases time wall-clock (UseRealTime): pool workers run
// part of the update, so the main thread's CPU time would overstate
// throughput whenever the pool has more than one thread.
//
// BM_PpoUpdate and BM_RolloutCollect/1 and /16 are gated: tools/bench_gate.py
// runs them from a parent and a changed build, alternated, and fails a
// median items/s drop beyond 10%. Their bit-identity is pinned by tier-1
// tests (GoldenTrace, VecEnv, ParallelDeterminism), not here.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "env/registry.h"
#include "common/thread_pool.h"
#include "nn/batch.h"
#include "nn/kernel_backend.h"
#include "nn/matrix.h"
#include "rl/ppo.h"
#include "scenario/scenario_env.h"

using namespace imap;

namespace {

void BM_EnvStep(benchmark::State& state, const std::string& name) {
  auto env = env::make_env(name);
  Rng rng(7);
  auto obs = env->reset(rng);
  const auto action = env->action_space().sample(rng);
  for (auto _ : state) {
    auto sr = env->step(action);
    if (sr.done || sr.truncated) env->reset(rng);
    benchmark::DoNotOptimize(sr.reward);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK_CAPTURE(BM_EnvStep, hopper, std::string("Hopper"));
BENCHMARK_CAPTURE(BM_EnvStep, ant, std::string("Ant"));
BENCHMARK_CAPTURE(BM_EnvStep, maze, std::string("AntUMaze"));
BENCHMARK_CAPTURE(BM_EnvStep, fetch, std::string("FetchReach"));

// Batched MLP forward through the blocked kernels: items/s is rows/s, so
// the Arg(1) row is the per-row query cost the larger batches amortise.
void BM_MlpForwardBatch(benchmark::State& state) {
  Rng rng(7);
  nn::Mlp net({17, 64, 64, 6}, rng);
  const auto b = static_cast<std::size_t>(state.range(0));
  nn::Batch x(b, 17);
  for (std::size_t r = 0; r < b; ++r)
    for (std::size_t c = 0; c < 17; ++c) x(r, c) = rng.normal();
  nn::Mlp::Workspace ws;
  for (auto _ : state) {
    const auto& y = net.forward_batch(x, ws);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(b));
}
BENCHMARK(BM_MlpForwardBatch)->Arg(1)->Arg(16)->Arg(64)->Arg(256);

// The hidden-layer activation alone, kernel::tanh_rows under one forced
// backend over 4096 values spread across both of its branches: items/s is
// elements/s.
void BM_TanhRows(benchmark::State& state, const std::string& backend) {
  nn::kernel::ScopedBackend forced(backend);
  if (!forced.activated()) {
    state.SkipWithError("backend not available on this host");
    return;
  }
  Rng rng(7);
  std::vector<double> x(4096), y(4096);
  for (auto& v : x) v = rng.normal(0.0, 2.0);
  for (auto _ : state) {
    nn::kernel::tanh_rows(x.data(), x.size(), y.data());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(x.size()));
}
BENCHMARK_CAPTURE(BM_TanhRows, scalar, std::string("scalar"));
BENCHMARK_CAPTURE(BM_TanhRows, avx2, std::string("avx2"));
BENCHMARK_CAPTURE(BM_TanhRows, avx512, std::string("avx512"));

// The backward pass's tanh derivative alone, kernel::tanh_grad under one
// forced backend over 4096 values: items/s is elements/s. Each pass starts
// from the same gradient (the copy is timed too): applied in place over and
// over, the factors 1 − y² < 1 would sink it into subnormals.
void BM_TanhGrad(benchmark::State& state, const std::string& backend) {
  nn::kernel::ScopedBackend forced(backend);
  if (!forced.activated()) {
    state.SkipWithError("backend not available on this host");
    return;
  }
  Rng rng(7);
  std::vector<double> y(4096), g0(4096), g(4096);
  for (auto& v : y) v = std::tanh(rng.normal(0.0, 1.0));
  for (auto& v : g0) v = rng.normal(0.0, 1.0);
  for (auto _ : state) {
    std::copy(g0.begin(), g0.end(), g.begin());
    nn::kernel::tanh_grad(y.data(), y.size(), g.data());
    benchmark::DoNotOptimize(g.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(y.size()));
}
BENCHMARK_CAPTURE(BM_TanhGrad, scalar, std::string("scalar"));
BENCHMARK_CAPTURE(BM_TanhGrad, avx2, std::string("avx2"));
BENCHMARK_CAPTURE(BM_TanhGrad, avx512, std::string("avx512"));

// The optimiser step alone, kernel::adam_step under one forced backend over
// 4096 parameters with clipping active: items/s is parameters/s.
void BM_AdamStep(benchmark::State& state, const std::string& backend) {
  nn::kernel::ScopedBackend forced(backend);
  if (!forced.activated()) {
    state.SkipWithError("backend not available on this host");
    return;
  }
  Rng rng(7);
  std::vector<double> p(4096), g(4096), m(4096, 0.0), v(4096, 0.0);
  for (auto& x : p) x = rng.normal(0.0, 0.1);
  for (auto& x : g) x = rng.normal(0.0, 1.0);
  const nn::kernel::AdamCoeffs c{.lr = 1e-3,
                                 .beta1 = 0.9,
                                 .beta2 = 0.999,
                                 .eps = 1e-8,
                                 .bc1 = 0.1,
                                 .bc2 = 0.001,
                                 .clip = 0.5};
  for (auto _ : state) {
    nn::kernel::adam_step(p.data(), g.data(), m.data(), v.data(), p.size(),
                          c);
    benchmark::DoNotOptimize(p.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(p.size()));
}
BENCHMARK_CAPTURE(BM_AdamStep, scalar, std::string("scalar"));
BENCHMARK_CAPTURE(BM_AdamStep, avx2, std::string("avx2"));
BENCHMARK_CAPTURE(BM_AdamStep, avx512, std::string("avx512"));

// The optimisation stage alone (sampling excluded) on one fixed rollout.
void BM_PpoUpdate(benchmark::State& state) {
  auto env = env::make_env("Hopper");
  rl::PpoOptions opts;
  opts.hidden = {64, 64};
  opts.minibatch = 64;
  opts.epochs = 1;
  opts.target_kl = 0.0;
  opts.steps_per_iter = 2048;
  rl::PpoTrainer trainer(*env, opts, Rng(7));
  rl::RolloutBuffer buf;
  trainer.collect(buf);
  rl::IterStats stats;
  for (auto _ : state) {
    trainer.update(buf, 0.0, stats);
    benchmark::DoNotOptimize(stats.value_loss);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          opts.steps_per_iter);
}
BENCHMARK(BM_PpoUpdate)->UseRealTime()->Unit(benchmark::kMillisecond);

/// The attack-rollout MDP the collection benchmarks run on: Hopper under
/// the obs_perturb threat model over a network-backed frozen victim, so
/// every step pays a victim forward — the case the vectorized engine batches.
std::unique_ptr<scenario::ScenarioEnv> make_collect_proto() {
  const auto spec = scenario::parse("hopper+obs_perturb:0.075");
  const auto inner = env::make_env(spec.env);
  Rng victim_rng(11);
  nn::GaussianPolicy victim(inner->obs_dim(), inner->act_dim(), {64, 64},
                            victim_rng);
  return std::make_unique<scenario::ScenarioEnv>(
      *inner, spec, rl::PolicyHandle::snapshot(victim),
      scenario::RewardMode::Adversary);
}

// The update of an IMAP attack: the 11→11 obs_perturb adversary with the
// default {32, 32} networks and minibatch 128, intrinsic critic on, on a
// pool of Arg threads, timed in wall-clock. The policy chain runs on the
// calling thread and a pool helper steps both critics behind its epoch
// gates, so /2 against /1 shows what the concurrent update buys; the trace
// is the same at both. Each update first joins the intrinsic chain the last
// one left pending, which here has no rollout to hide behind. Not gated
// (bench_gate.py runs at one thread).
void BM_PpoUpdateImap(benchmark::State& state) {
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  ScopedPool scope(pool);
  const auto proto = make_collect_proto();
  rl::PpoOptions opts;
  opts.epochs = 1;
  opts.target_kl = 0.0;
  opts.steps_per_iter = 2048;
  rl::PpoTrainer trainer(*proto, opts, Rng(7));
  // Installing a hook is what turns the intrinsic channel on; update()
  // itself never calls it, so the bonus is filled in by hand below.
  trainer.set_intrinsic_hook([](rl::RolloutBuffer&) { return 0.0; });
  rl::RolloutBuffer buf;
  trainer.collect(buf);
  Rng bonus(13);
  for (auto& r : buf.rew_i) r = bonus.uniform(0.0, 1.0);
  rl::IterStats stats;
  for (auto _ : state) {
    trainer.update(buf, 0.5, stats);
    benchmark::DoNotOptimize(stats.value_loss);
  }
  state.SetLabel(std::to_string(state.range(0)) + " threads");
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          opts.steps_per_iter);
}
BENCHMARK(BM_PpoUpdateImap)
    ->Arg(1)
    ->Arg(2)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// A whole IMAP iteration on the same adversary and pool sizes: the rollout,
// a stand-in intrinsic hook (a fixed function of the observations, so no
// KNN time is counted) and the update. At two threads the intrinsic critic's
// chain that update() leaves pending trains beside the next rollout, so /2
// against /1 shows what that overlap buys on top of the update's own. Not
// gated.
void BM_PpoIterationImap(benchmark::State& state) {
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  ScopedPool scope(pool);
  const auto proto = make_collect_proto();
  rl::PpoOptions opts;
  opts.steps_per_iter = 2048;
  rl::PpoTrainer trainer(*proto, opts, Rng(7));
  trainer.set_intrinsic_hook([](rl::RolloutBuffer& buf) {
    for (std::size_t i = 0; i < buf.size(); ++i)
      buf.rew_i[i] = std::tanh(buf.obs[i][0]);
    return 0.5;
  });
  for (auto _ : state) {
    auto stats = trainer.iterate();
    benchmark::DoNotOptimize(stats.value_loss);
  }
  state.SetLabel(std::to_string(state.range(0)) + " threads");
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          opts.steps_per_iter);
}
BENCHMARK(BM_PpoIterationImap)
    ->Arg(1)
    ->Arg(2)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Rollout collection throughput: Arg = E lockstep env slots, all through the
// vectorized engine. E = 1 is a one-slot lockstep collect on the trainer's
// own stream (each tick's policy, value and victim forwards are 1-row
// batches); E >= 4 answers each tick with one batched policy, value and
// victim forward across the slots. The trace depends on the slot count, so
// the arms compare throughput only.
void BM_RolloutCollect(benchmark::State& state) {
  const auto proto = make_collect_proto();
  rl::PpoOptions opts;
  opts.hidden = {64, 64};
  opts.steps_per_iter = 2048;
  opts.envs_per_worker = static_cast<int>(state.range(0));
  rl::PpoTrainer trainer(*proto, opts, Rng(7));
  rl::RolloutBuffer buf;
  for (auto _ : state) {
    trainer.collect(buf);
    benchmark::DoNotOptimize(buf.size());
  }
  state.SetLabel(state.range(0) == 1 ? "one-slot lockstep" : "vectorized");
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          opts.steps_per_iter);
}
BENCHMARK(BM_RolloutCollect)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

void BM_PpoIteration(benchmark::State& state) {
  auto env = env::make_env("Hopper");
  rl::PpoOptions opts;
  opts.steps_per_iter = static_cast<int>(state.range(0));
  rl::PpoTrainer trainer(*env, opts, Rng(7));
  for (auto _ : state) {
    auto stats = trainer.iterate();
    benchmark::DoNotOptimize(stats.mean_return);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_PpoIteration)
    ->Arg(512)
    ->Arg(2048)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Parallel PPO iteration: 4 rollout workers on the process pool (serial
// unless IMAP_THREADS / the core count allows more).
void BM_PpoIterationParallel(benchmark::State& state) {
  auto env = env::make_env("Hopper");
  rl::PpoOptions opts;
  opts.steps_per_iter = static_cast<int>(state.range(0));
  opts.num_workers = 4;
  rl::PpoTrainer trainer(*env, opts, Rng(7));
  for (auto _ : state) {
    auto stats = trainer.iterate();
    benchmark::DoNotOptimize(stats.mean_return);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_PpoIterationParallel)
    ->Arg(512)
    ->Arg(2048)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
