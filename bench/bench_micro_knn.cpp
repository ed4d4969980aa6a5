// Micro-benchmarks of the KNN state-density estimator (Sec. 5.2) — the
// per-step cost that dominates IMAP's intrinsic-bonus computation.

#include <benchmark/benchmark.h>

#include <functional>

#include "core/knn.h"
#include "core/regularizer.h"
#include "env/registry.h"

using imap::Rng;
using imap::core::KnnBuffer;

namespace {

KnnBuffer filled_buffer(std::size_t dim, std::size_t n, std::size_t k) {
  Rng rng(42);
  KnnBuffer buf(dim, n, k, rng.split(1));
  const auto rows = rng.normal_vec(n * dim);
  buf.add_rows(rows.data(), n);
  return buf;
}

void BM_KnnQuery(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  const auto buf = filled_buffer(dim, n, 3);
  Rng rng(7);
  const auto q = rng.normal_vec(dim);
  for (auto _ : state) benchmark::DoNotOptimize(buf.knn_distance(q));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_KnnQuery)
    ->Args({8, 1024})
    ->Args({8, 4096})
    ->Args({16, 4096})
    ->Args({16, 16384})
    ->Args({32, 4096});

// The production call: make_regularizer(PC)->compute() on a 2048-row,
// 11-wide rollout (Hopper's observation width) against a full 4096-row
// union buffer. Each iteration scans D_k and B for every row on the thread
// pool (IMAP_THREADS), then folds the rollout into B by reservoir sampling,
// so B stays full. Every iteration gets a fresh rollout, drawn outside the
// timed region: re-feeding one rollout would fill B with copies of its own
// rows, whose zero distances let the windowed scan stop at once.
// `next_obs` yields one observation per call.
constexpr std::size_t kObsDim = 11, kActDim = 3, kRows = 2048;

void time_pc_compute(benchmark::State& state,
                     const std::function<std::vector<double>()>& next_obs) {
  imap::core::RegularizerOptions opts;
  opts.type = imap::core::RegularizerType::PC;
  opts.pc_capacity = 4096;
  auto reg = imap::core::make_regularizer(opts, kObsDim, kActDim, Rng(42));
  Rng rng(7);
  const imap::nn::GaussianPolicy policy(kObsDim, kActDim, {8}, rng);
  auto rollout = [&] {
    imap::rl::RolloutBuffer buf;
    for (std::size_t i = 0; i < kRows; ++i)
      buf.add(next_obs(), {0.0, 0.0, 0.0}, 0.0, 0.0, 0.0);
    return buf;
  };
  // Two earlier rollouts fill B to capacity.
  for (int i = 0; i < 2; ++i) {
    auto fill = rollout();
    reg->compute(fill, policy);
  }
  for (auto _ : state) {
    state.PauseTiming();
    auto buf = rollout();
    state.ResumeTiming();
    reg->compute(buf, policy);
    benchmark::DoNotOptimize(buf.rew_i.data());
    benchmark::ClobberMemory();
  }
}

// Isotropic N(0, 1) rows: no axis separates them, so the windowed scan
// covers the whole buffer — the worst case of the sorted-axis bound.
void BM_PcRegularizerCompute(benchmark::State& state) {
  Rng rng(7);
  time_pc_compute(state, [&] { return rng.normal_vec(kObsDim); });
}
BENCHMARK(BM_PcRegularizerCompute)->Unit(benchmark::kMillisecond);

// Trajectory-shaped rows: the observations of a seeded Hopper rollout under
// a uniformly random policy, episodes restarting on termination — the kind
// of states the PC bonus sees in an attack.
void BM_PcRegularizerComputeHopper(benchmark::State& state) {
  auto env = imap::env::make_env("Hopper");
  Rng rng(7);
  std::vector<double> obs = env->reset(rng);
  time_pc_compute(state, [&] {
    std::vector<double> seen = obs;
    const auto sr = env->step(env->action_space().sample(rng));
    obs = sr.done || sr.truncated ? env->reset(rng) : sr.obs;
    return seen;
  });
}
BENCHMARK(BM_PcRegularizerComputeHopper)->Unit(benchmark::kMillisecond);

}  // namespace
