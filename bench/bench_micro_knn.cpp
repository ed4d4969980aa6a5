// Micro-benchmarks of the KNN state-density estimator (Sec. 5.2) — the
// per-step cost that dominates IMAP's intrinsic-bonus computation.

#include <benchmark/benchmark.h>

#include "core/knn.h"
#include "core/regularizer.h"

using imap::Rng;
using imap::core::KnnBuffer;

namespace {

KnnBuffer filled_buffer(std::size_t dim, std::size_t n, std::size_t k) {
  Rng rng(42);
  KnnBuffer buf(dim, n, k, rng.split(1));
  for (std::size_t i = 0; i < n; ++i) buf.add(rng.normal_vec(dim));
  return buf;
}

void BM_KnnAdd(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  Rng rng(42);
  KnnBuffer buf(dim, 4096, 3, rng.split(1));
  const auto s = rng.normal_vec(dim);
  for (auto _ : state) {
    buf.add(s);
    benchmark::DoNotOptimize(buf.size());
  }
}
BENCHMARK(BM_KnnAdd)->Arg(8)->Arg(16)->Arg(32);

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

// The per-iteration cost of one full PC bonus pass (rollout × (D_k + B)).
void BM_PcBonusPass(benchmark::State& state) {
  const std::size_t dim = 16, rollout = 2048, cap = 4096;
  Rng rng(42);
  const auto union_buf = filled_buffer(dim, cap, 3);
  std::vector<std::vector<double>> states(rollout);
  for (auto& s : states) s = rng.normal_vec(dim);
  for (auto _ : state) {
    KnnBuffer dk(dim, rollout, 3, rng.split(1));
    for (const auto& s : states) dk.add(s);
    double acc = 0.0;
    for (const auto& s : states)
      acc += dk.knn_distance(s) * union_buf.knn_distance(s);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_PcBonusPass)->Unit(benchmark::kMillisecond);

// The production call: make_regularizer(PC)->compute() on a fixed 2048-row,
// 11-wide rollout (Hopper's observation width) against a full 4096-row
// union buffer. Each iteration scans D_k and B for every row on the thread
// pool (IMAP_THREADS), then folds the rollout into B by reservoir sampling,
// so B stays full.
void BM_PcRegularizerCompute(benchmark::State& state) {
  constexpr std::size_t obs_dim = 11, act_dim = 3, rows = 2048;
  imap::core::RegularizerOptions opts;
  opts.type = imap::core::RegularizerType::PC;
  opts.pc_capacity = 4096;
  auto reg = imap::core::make_regularizer(opts, obs_dim, act_dim, Rng(42));
  Rng rng(7);
  const imap::nn::GaussianPolicy policy(obs_dim, act_dim, {8}, rng);
  auto rollout = [&] {
    imap::rl::RolloutBuffer buf;
    for (std::size_t i = 0; i < rows; ++i)
      buf.add(rng.normal_vec(obs_dim), {0.0, 0.0, 0.0}, 0.0, 0.0, 0.0);
    return buf;
  };
  // Two earlier rollouts fill B to capacity.
  for (int i = 0; i < 2; ++i) {
    auto fill = rollout();
    reg->compute(fill, policy);
  }
  auto buf = rollout();
  for (auto _ : state) {
    reg->compute(buf, policy);
    benchmark::DoNotOptimize(buf.rew_i.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_PcRegularizerCompute)->Unit(benchmark::kMillisecond);

}  // namespace
