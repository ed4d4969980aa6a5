// Victim-serving micro-benchmarks: fp64 vs int8-quantized PolicyHandle
// throughput — the cost model behind the quantized serving path (nn/quant.h).
//
// BM_VictimQueryBatch at batch 16 and 64 on both paths is gated by
// tools/bench_gate.py (parent vs change, median items/s within 10%). The
// int8 path's accuracy bound is pinned by the tier-1 QuantizedMlp and
// VictimQuant tests.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "common/rng.h"
#include "nn/batch.h"
#include "nn/gaussian.h"
#include "nn/mlp.h"
#include "rl/policy_handle.h"

using namespace imap;

namespace {

/// The frozen victim every benchmark serves: locomotion-scale obs/action
/// widths with the standard {64, 64} tanh torso.
std::shared_ptr<const nn::GaussianPolicy> make_victim() {
  Rng rng(11);
  return std::make_shared<const nn::GaussianPolicy>(
      11, 3, std::vector<std::size_t>{64, 64}, rng);
}

nn::Batch random_obs(std::size_t rows, std::size_t dim, Rng& rng) {
  nn::Batch b(rows, dim);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < dim; ++c) b(r, c) = rng.normal(0.0, 1.0);
  return b;
}

// Victim query throughput through PolicyHandle: Arg0 = batch size, Arg1 = 0
// for the fp64 path, 1 for the int8-quantized path. items/s is queries/s.
void BM_VictimQueryBatch(benchmark::State& state) {
  const auto victim = make_victim();
  const bool quant = state.range(1) != 0;
  const auto handle = rl::PolicyHandle::serving(victim, quant);
  Rng rng(7);
  const auto b = static_cast<std::size_t>(state.range(0));
  const nn::Batch obs = random_obs(b, victim->obs_dim(), rng);
  nn::Mlp::Workspace ws;
  for (auto _ : state) {
    const auto& y = handle.query_batch(obs, ws);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetLabel(quant ? "int8" : "fp64");
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(b));
}
BENCHMARK(BM_VictimQueryBatch)
    ->Args({1, 0})
    ->Args({1, 1})
    ->Args({16, 0})
    ->Args({16, 1})
    ->Args({64, 0})
    ->Args({64, 1});

}  // namespace
