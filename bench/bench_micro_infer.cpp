// Victim-serving micro-benchmarks: fp64 vs int8-quantized PolicyHandle
// throughput — the cost model behind the quantized serving path (nn/quant.h).
//
// The custom main() first runs an inference probe (skipped when
// IMAP_BENCH_NO_PROBE is set, e.g. by the CI bench-smoke stage): the same
// frozen victim ({11, 64, 64, 3}, Hopper scale) is served through a plain
// fp64 PolicyHandle and through an int8 PolicyHandle::serving(victim, true),
// query_batch is timed at batch 16/32/64 (min over 7 repetitions each), and
// the per-batch throughput, speedup and the max |Δaction| between the two
// paths are recorded in BENCH_infer.json (committed, see README). The
// google-benchmark suites then run as usual.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <vector>

#include "common/rng.h"
#include "grid_runner.h"
#include "nn/batch.h"
#include "nn/gaussian.h"
#include "nn/kernel_backend.h"
#include "nn/mlp.h"
#include "nn/quant.h"
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

/// Seconds for `calls` back-to-back query_batch calls on `obs`, min over 7
/// repetitions.
double time_queries(const rl::PolicyHandle& handle, const nn::Batch& obs,
                    int calls) {
  nn::Mlp::Workspace ws;
  handle.query_batch(obs, ws);  // warm-up: grow the workspace arenas
  return bench::min_seconds(7, [&] {
    for (int i = 0; i < calls; ++i) {
      const auto& y = handle.query_batch(obs, ws);
      benchmark::DoNotOptimize(y.data());
    }
  });
}

void infer_probe() {
  const auto victim = make_victim();
  const auto fp64_handle = rl::PolicyHandle::serving(victim, false);
  const auto int8_handle = rl::PolicyHandle::serving(victim, true);

  // Accuracy first: the speedup claim is only meaningful alongside the
  // pinned error bound the tests enforce (kQuantActionTolerance).
  Rng rng(7);
  const nn::Batch err_obs = random_obs(256, victim->obs_dim(), rng);
  nn::Mlp::Workspace ews, qws;
  const nn::Batch& exact = fp64_handle.query_batch(err_obs, ews);
  const nn::Batch& quant = int8_handle.query_batch(err_obs, qws);
  double max_err = 0.0;
  for (std::size_t r = 0; r < exact.rows(); ++r)
    for (std::size_t c = 0; c < exact.dim(); ++c)
      max_err = std::max(max_err, std::abs(quant(r, c) - exact(r, c)));
  const bool within = max_err <= nn::kQuantActionTolerance;

  std::ostringstream os;
  os.setf(std::ios::fixed);
  os << "{\"victim\": [11, 64, 64, 3], \"backend\": \""
     << nn::kernel::active_backend().name << "\", \"reps\": 7";
  os.precision(6);
  os << ", \"max_abs_action_err\": " << max_err
     << ", \"tolerance\": " << nn::kQuantActionTolerance
     << ", \"within_tolerance\": " << (within ? "true" : "false")
     << ", \"batches\": [";

  double min_speedup = std::numeric_limits<double>::infinity();
  const int kBatches[] = {16, 32, 64};
  bool first = true;
  for (const int b : kBatches) {
    // Fixed total queries per rep so each batch row does comparable work.
    const int calls = 16384 / b;
    const nn::Batch obs =
        random_obs(static_cast<std::size_t>(b), victim->obs_dim(), rng);
    const double fp64_s = time_queries(fp64_handle, obs, calls);
    const double int8_s = time_queries(int8_handle, obs, calls);
    const double total = static_cast<double>(calls) * b;
    const double fp64_qps = fp64_s > 0.0 ? total / fp64_s : 0.0;
    const double int8_qps = int8_s > 0.0 ? total / int8_s : 0.0;
    const double speedup = int8_s > 0.0 ? fp64_s / int8_s : 1.0;
    min_speedup = std::min(min_speedup, speedup);

    os << (first ? "" : ", ");
    first = false;
    os.precision(6);
    os << "{\"batch\": " << b << ", \"fp64_s\": " << fp64_s
       << ", \"int8_s\": " << int8_s;
    os.precision(0);
    os << ", \"fp64_queries_per_s\": " << fp64_qps
       << ", \"int8_queries_per_s\": " << int8_qps;
    os.precision(3);
    os << ", \"speedup\": " << speedup << "}";
    std::cerr << "bench_micro_infer probe: batch " << b << " fp64 "
              << fp64_s << "s vs int8 " << int8_s << "s (" << speedup
              << "x)\n";
  }
  os.precision(3);
  os << "], \"min_speedup\": " << min_speedup << "}";
  bench::write_report_entry("BENCH_infer.json", "BM_VictimQueryBatch",
                            os.str());
  std::cerr << "bench_micro_infer probe: min speedup " << min_speedup
            << "x over batches 16-64, max action error " << max_err
            << " (tolerance " << nn::kQuantActionTolerance << ", "
            << (within ? "within" : "EXCEEDED")
            << ") -> BENCH_infer.json\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (std::getenv("IMAP_BENCH_NO_PROBE") == nullptr) infer_probe();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
