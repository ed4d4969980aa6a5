// Micro-benchmarks of the RL substrate: environment stepping, the batched
// nn kernels (the tanh activation per backend), rollout collection and PPO
// training throughput — the cost model behind the bench budgets.
//
// BM_PpoUpdate and BM_RolloutCollect/1 and /16 are gated: tools/bench_gate.py
// runs them from a parent and a changed build, alternated, and fails a
// median items/s drop beyond 10%. Their bit-identity is pinned by tier-1
// tests (GoldenTrace, VecEnv, ParallelDeterminism), not here.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "env/registry.h"
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
BENCHMARK(BM_PpoUpdate)->Unit(benchmark::kMillisecond);

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
BENCHMARK(BM_PpoIteration)->Arg(512)->Arg(2048)->Unit(benchmark::kMillisecond);

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
    ->Unit(benchmark::kMillisecond);

}  // namespace
