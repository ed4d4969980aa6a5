// Shared parallel grid harness for the bench binaries: dispatches the
// independent cells of a result grid (Tables 1-3, Figs. 4-7, ablations) onto
// the process thread pool and records per-cell wall-clock plus a summary
// entry in BENCH_parallel.json.
//
// Determinism: every cell derives its randomness purely from its plan and
// the experiment seed (ExperimentRunner::plan_rng), so the results are
// independent of scheduling and of IMAP_THREADS. Victim checkpoints are
// pre-trained serially (deduped by training-env) and duplicate cells are
// coalesced by cache key, so concurrent cells never race on a cache file.
//
// With IMAP_PROCS > 1 the grid is instead handed to core::DagScheduler,
// which executes the victim→attack dependency DAG on a pool of worker
// processes (crash-recovering, same results — see core/experiment_dag.h).

#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.h"

namespace imap::bench {

/// Wall-clock of one grid cell or custom job.
struct CellTiming {
  std::string label;
  double seconds = 0.0;
};

class GridRunner {
 public:
  GridRunner(core::ExperimentRunner& runner, std::string bench_name);

  /// Run every plan as an independent cell, in parallel when the pool has
  /// threads; returns outcomes in plan order. Duplicate plans (same cache
  /// key) are run once and fanned back out.
  std::vector<core::AttackOutcome> run_plans(
      const std::vector<core::AttackPlan>& plans);

  /// Run labelled self-contained jobs in parallel, timing each. Jobs must
  /// own their state (pre-split Rngs, own env clones) — nothing may depend
  /// on the order in which other jobs run.
  void run_jobs(
      std::vector<std::pair<std::string, std::function<void()>>> jobs);

  /// Merge this bench's summary (threads, per-cell and total wall-clock,
  /// serial-equivalent time, speedup) into BENCH_parallel.json. Call once,
  /// after all grids/jobs.
  void write_report() const;

  const std::vector<CellTiming>& timings() const { return timings_; }

 private:
  core::ExperimentRunner& runner_;
  std::string bench_name_;
  std::vector<CellTiming> timings_;
  double wall_seconds_ = 0.0;  ///< summed over run_plans/run_jobs calls
};

/// Minimum wall-clock seconds over `reps` calls of `fn` (+inf when reps <= 0).
/// Min, not mean: background load only ever inflates a rep, so the minimum
/// is the robust estimate of the cost. Warm-up runs are the caller's.
double min_seconds(int reps, const std::function<void()>& fn);

/// Merge `entry_json` (a JSON value) under key `key` into the flat JSON
/// object at `path` (created if missing), preserving other keys' entries.
/// Used for the committed bench reports (BENCH_parallel.json,
/// BENCH_kernels.json).
void write_report_entry(const std::string& path, const std::string& key,
                        const std::string& entry_json);

/// Merge `entry_json` (a JSON value) under key `bench_name` into
/// BENCH_parallel.json in the working directory, preserving other benches'
/// entries.
void write_parallel_report_entry(const std::string& bench_name,
                                 const std::string& entry_json);

}  // namespace imap::bench
