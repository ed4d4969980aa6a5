// Shared grid harness for the bench binaries: hands a result grid (Tables
// 1-3, Figs. 4-7, ablations) to core::DagScheduler, the one grid planner,
// runs labelled custom jobs on the thread pool, and records per-node
// wall-clock plus a summary entry in BENCH_parallel.json.
//
// Determinism: every cell derives its randomness purely from its plan and
// the experiment seed (ExperimentRunner::plan_rng), so the results are
// independent of scheduling and IMAP_THREADS. The scheduler dedups victims
// by checkpoint identity and cells by cache key, trains each victim before
// its attacks, and runs the DAG on the thread pool (see
// core/experiment_dag.h).
//
// Timings are inclusive of stolen work wherever the timed body can wait
// inside a nested parallel region: such a thread runs other pending tasks,
// and their time counts towards the waiting body too. run_jobs bodies can;
// DAG nodes cannot, since the scheduler runs each node body serially on
// its thread. The timings show where the time went; their sum is not a
// serial-equivalent cost, so no speedup is derived from them.

#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment_dag.h"

namespace imap::bench {

/// Report label of one DAG node: "env/defense/attack[+BR]" for cells,
/// "victim/env/defense" (or "victim/game") for victims; spaces become '-'.
std::string node_label(const core::DagNode& node);

/// Wall-clock of one grid cell or custom job.
struct CellTiming {
  std::string label;
  double seconds = 0.0;
};

class GridRunner {
 public:
  GridRunner(core::ExperimentRunner& runner, std::string bench_name);

  /// Run every plan's cell through core::DagScheduler; returns outcomes in
  /// plan order. Duplicate plans (same cache key) are run once and fanned
  /// back out. Records one timing per DAG node, victims included.
  std::vector<core::AttackOutcome> run_plans(
      const std::vector<core::AttackPlan>& plans);

  /// Run labelled self-contained jobs in parallel, timing each. Jobs must
  /// own their state (pre-split Rngs, own env clones) — nothing may depend
  /// on the order in which other jobs run.
  void run_jobs(
      std::vector<std::pair<std::string, std::function<void()>>> jobs);

  /// Merge this bench's summary (threads, hardware threads, per-node
  /// and total wall-clock) into BENCH_parallel.json. Call once, after all
  /// grids/jobs.
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

/// Merge `entry_json` (a JSON value) under key `bench_name` into the flat
/// JSON object in BENCH_parallel.json in the working directory (created if
/// missing), preserving other benches' entries.
void write_parallel_report_entry(const std::string& bench_name,
                                 const std::string& entry_json);

}  // namespace imap::bench
