// Micro-benchmarks of the RL substrate: environment stepping, the batched
// nn kernels (the tanh activation per backend) and PPO training throughput —
// the cost model behind the bench budgets.
//
// The custom main() first runs three probes (skipped when
// IMAP_BENCH_NO_PROBE is set, e.g. by the CI bench-smoke stage):
//  * a parallel-speedup probe — the same PPO configuration (4 rollout
//    workers) timed once pinned serial (ScopedSerial)
//    and once on a dedicated 4-thread pool (ScopedPool), verifying the
//    traces match bit-for-bit and recording the timings in
//    BENCH_parallel.json;
//  * a kernel probe — the batched PPO update timed on one fixed rollout
//    (hidden {64,64}, minibatch 64), recorded in BENCH_kernels.json
//    (committed, see README); its bit-identity is pinned by the GoldenTrace
//    tests;
//  * a rollout probe — 16 one-slot VecEnvs (the production K·E = 1 path)
//    vs one 16-slot lockstep VecEnv, all collect() on the same slot streams
//    over the victim-wrapped Hopper, verifying the rollouts are
//    bit-identical and recording the steps/s in BENCH_rollout.json
//    (committed, see README).
// The google-benchmark suites then run as usual.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <vector>

#include "common/thread_pool.h"
#include "env/registry.h"
#include "grid_runner.h"
#include "nn/batch.h"
#include "nn/kernel_backend.h"
#include "nn/matrix.h"
#include "rl/ppo.h"
#include "rl/vec_env.h"
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

/// Run `iters` PPO iterations with the parallel options; returns (seconds,
/// final mean_return) so the serial and pooled traces can be compared.
std::pair<double, double> probe_run(int iters) {
  auto env = env::make_env("Hopper");
  rl::PpoOptions opts;
  opts.steps_per_iter = 2048;
  opts.num_workers = 4;
  rl::PpoTrainer trainer(*env, opts, Rng(7));
  const auto t0 = std::chrono::steady_clock::now();
  double last = 0.0;
  for (int i = 0; i < iters; ++i) last = trainer.iterate().mean_return;
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return {secs, last};
}

void speedup_probe() {
  constexpr int kIters = 3;
  double serial_s = 0.0, pool_s = 0.0;
  double serial_ret = 0.0, pool_ret = 0.0;
  {
    ScopedSerial serial;
    std::tie(serial_s, serial_ret) = probe_run(kIters);
  }
  {
    ThreadPool pool(4);
    ScopedPool scope(pool);
    std::tie(pool_s, pool_ret) = probe_run(kIters);
  }
  const double speedup = pool_s > 0.0 ? serial_s / pool_s : 1.0;
  // The pool must reproduce the serial trace bit for bit, so == is meant.
  const bool identical = serial_ret == pool_ret;  // imap-check: allow(float-eq)

  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(3);
  os << "{\"iters\": " << kIters << ", \"steps_per_iter\": 2048"
     << ", \"workers\": 4"
     << ", \"serial_s\": " << serial_s << ", \"pool4_s\": " << pool_s
     << ", \"speedup\": " << speedup
     << ", \"hardware_threads\": " << std::thread::hardware_concurrency()
     << ", \"traces_identical\": " << (identical ? "true" : "false") << "}";
  bench::write_parallel_report_entry("bench_micro_ppo", os.str());
  std::cerr << "bench_micro_ppo speedup probe: serial " << serial_s
            << "s vs 4-thread pool " << pool_s << "s (" << speedup
            << "x) on "
            << std::thread::hardware_concurrency()
            << " hardware threads; traces "
            << (identical ? "identical" : "DIVERGED")
            << " -> BENCH_parallel.json\n";
}

/// Time the PPO update stage on a fixed rollout; returns the min seconds
/// per update.
double kernel_probe_run() {
  ScopedSerial serial;  // isolate the kernel cost from thread scaling
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
  trainer.update(buf, 0.0, stats);  // warm-up: grow the workspace arenas
  return bench::min_seconds(7, [&] { trainer.update(buf, 0.0, stats); });
}

void kernel_probe() {
  const double batched_s = kernel_probe_run();
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(5);
  os << "{\"env\": \"Hopper\", \"hidden\": [64, 64], \"minibatch\": 64"
     << ", \"epochs\": 1, \"steps_per_iter\": 2048"
     << ", \"batched_update_s\": " << batched_s << "}";
  bench::write_report_entry("BENCH_kernels.json", "BM_PpoUpdate", os.str());
  std::cerr << "bench_micro_ppo kernel probe: batched update " << batched_s
            << "s -> BENCH_kernels.json\n";
}

/// Order-sensitive checksum of everything a collection writes — two rollouts
/// agree on it iff they are bit-identical in every recorded field.
double buffer_checksum(const rl::RolloutBuffer& buf) {
  double sum = static_cast<double>(buf.size());
  for (std::size_t i = 0; i < buf.size(); ++i) {
    for (const double v : buf.obs[i]) sum += v;
    for (const double v : buf.act[i]) sum += v;
    sum += buf.logp[i] + buf.rew_e[i] + buf.val_e[i];
    sum += static_cast<double>(buf.boundary[i]);
  }
  for (const double v : buf.last_val_e) sum += v;
  for (const double v : buf.episode_returns) sum += v;
  return sum;
}

/// Time one collection round (16 env slots, 128 steps each) on the
/// victim-wrapped Hopper, either as 16 one-slot VecEnvs (every forward a
/// one-row batch) or as one 16-slot lockstep VecEnv; returns (min seconds
/// per round, checksum of the last round) so the two shapes can be compared
/// for throughput and identity. Both use the same nets and slot streams, so
/// rep r's rollout matches across them.
std::pair<double, double> rollout_probe_run(bool vectorized) {
  ScopedSerial serial;  // isolate the batching speedup from thread scaling
  constexpr std::size_t kSlots = 16;
  const auto proto = make_collect_proto();
  Rng rng(7);
  nn::GaussianPolicy policy(proto->obs_dim(), proto->act_dim(), {64, 64},
                            rng);
  nn::ValueNet value_e(proto->obs_dim(), {64, 64}, rng);
  nn::ValueNet value_i(proto->obs_dim(), {64, 64}, rng);
  std::vector<Rng> streams;
  for (std::size_t i = 0; i < kSlots; ++i) streams.push_back(rng.split(i));
  std::vector<rl::VecEnv> engines(vectorized ? 1 : kSlots);
  if (vectorized)
    engines[0].configure(*proto, streams);
  else
    for (std::size_t i = 0; i < kSlots; ++i)
      engines[i].configure(*proto, {streams[i]});
  const std::vector<int> budgets(kSlots, 2048 / static_cast<int>(kSlots));
  const auto round = [&] {
    // Engine i's slots start at offset i (one-slot) or 0 (lockstep).
    for (std::size_t i = 0; i < engines.size(); ++i)
      engines[i].collect(policy, value_e, value_i, budgets, i);
  };
  round();  // warm-up: grow buffers and workspaces
  const double secs = bench::min_seconds(7, round);
  double sum = 0.0;
  for (const auto& engine : engines)
    for (std::size_t i = 0; i < engine.size(); ++i)
      sum += buffer_checksum(engine.slot(i).buf);
  return {secs, sum};
}

void rollout_probe() {
  const auto [serial_s, serial_sum] = rollout_probe_run(false);
  const auto [vectorized_s, vectorized_sum] = rollout_probe_run(true);
  const double serial_sps = serial_s > 0.0 ? 2048.0 / serial_s : 0.0;
  const double vectorized_sps =
      vectorized_s > 0.0 ? 2048.0 / vectorized_s : 0.0;
  const double speedup = vectorized_s > 0.0 ? serial_s / vectorized_s : 1.0;
  const bool identical = serial_sum == vectorized_sum;

  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(5);
  os << "{\"env\": \"Hopper\", \"threat_model\": \"obs_perturb\""
     << ", \"hidden\": [64, 64], \"steps_per_iter\": 2048"
     << ", \"envs_per_worker\": 16, \"serial_collect_s\": " << serial_s
     << ", \"vectorized_collect_s\": " << vectorized_s;
  os.precision(1);
  os << ", \"serial_steps_per_s\": " << serial_sps
     << ", \"vectorized_steps_per_s\": " << vectorized_sps;
  os.precision(3);
  os << ", \"speedup\": " << speedup
     << ", \"traces_identical\": " << (identical ? "true" : "false") << "}";
  bench::write_report_entry("BENCH_rollout.json", "BM_RolloutCollect",
                            os.str());
  std::cerr << "bench_micro_ppo rollout probe: 16 one-slot collects "
            << serial_s
            << "s vs vectorized (E=16) " << vectorized_s << "s (" << speedup
            << "x); traces " << (identical ? "identical" : "DIVERGED")
            << " -> BENCH_rollout.json\n";
}

}  // namespace

int main(int argc, char** argv) {
  // Probe-only mode for the CI bench-diff gate: run just the rollout probe
  // (writes BENCH_rollout.json in the cwd) and exit, skipping the slower
  // speedup/kernel probes and the google-benchmark suites.
  if (std::getenv("IMAP_BENCH_ROLLOUT_PROBE_ONLY") != nullptr) {
    rollout_probe();
    return 0;
  }
  if (std::getenv("IMAP_BENCH_NO_PROBE") == nullptr) {
    speedup_probe();
    kernel_probe();
    rollout_probe();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
