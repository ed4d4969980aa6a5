#pragma once

#include <string>
#include <vector>

#include "common/config.h"
#include "core/experiment.h"

namespace imap::core {

/// One node of the experiment dependency DAG. The paper's grid factors as
/// victim training (per checkpoint identity: training env × defense, or
/// game) → attack training → evaluation; attack cells of the same victim
/// are independent once its checkpoint exists, so they parallelise freely.
struct DagNode {
  enum class Kind { Victim, GameVictim, Attack };
  Kind kind = Kind::Attack;
  std::string env_name;  ///< victims: env the zoo request names; attacks: task
  std::string defense;   ///< single-agent victim nodes only
  AttackPlan plan;       ///< attack nodes only
  std::vector<std::size_t> deps;  ///< node indices that must finish first
};

struct DagOptions {
  /// Worker processes. 0 = IMAP_PROCS; <= 1 runs the nodes in this process
  /// on the thread pool (serially under ScopedSerial / IMAP_THREADS=1).
  int procs = 0;
  /// Crash drill: the Nth Attack dispatch is marked so its worker halts the
  /// cell after one training iteration (leaving the run's usual resumable
  /// snapshot and its stale cell lockfile) and dies without replying. The
  /// scheduler must detect the death, respawn the worker and re-dispatch
  /// the cell, which steals the lock and resumes from the snapshot. 0 = off.
  int crash_nth_attack = 0;
  /// Dispatch budget per node; a node failing this many times is fatal.
  int max_attempts = 3;
};

struct DagStats {
  int nodes = 0;
  int dispatched = 0;     ///< requests sent, including re-dispatches
  int re_dispatched = 0;  ///< dispatches that replaced a dead worker's cell
  int worker_deaths = 0;
  int procs = 1;
};

/// Build the dependency DAG for `plans`: one victim node per checkpoint
/// identity (training env × defense; sparse tasks share their dense
/// counterpart's victim), one attack node per unique cache key, and each
/// attack depending on its victim. `node_of_plan[i]` maps plan i to its
/// (possibly shared) attack node.
std::vector<DagNode> build_experiment_dag(
    ExperimentRunner& runner, const std::vector<AttackPlan>& plans,
    std::vector<std::size_t>& node_of_plan);

/// The one planner for experiment grids: benches, tools/fabric_grid and
/// imap_serve attack jobs all run their plans through it. Two executors
/// share its DAG and dedup; DagOptions::procs (IMAP_PROCS) picks one.
///
/// Threads (procs <= 1): every victim node is a task on the thread pool;
/// once a victim is trained its attack nodes fan out as a nested region,
/// so attacks of finished victims overlap victims still training. Each
/// node body runs serially on its thread. Under ScopedSerial /
/// IMAP_THREADS=1 this is a plain serial loop.
///
/// Processes (procs > 1): ready nodes sit in one queue and any idle forked
/// worker pulls the next one (pull-based work stealing), so a slow cell
/// never blocks unrelated ready work. Each worker runs one ExperimentRunner
/// over the shared zoo/result store; per-cell file locks plus atomic
/// tmp+rename writes make concurrent artifact access safe, and every
/// finished cell is cached under its cache_key, so the scheduler's unit of
/// crash recovery is the cell: a dead worker's cell is re-dispatched and
/// resumes from the zoo / snapshot / cache state the crashed attempt left
/// on disk.
class DagScheduler {
 public:
  DagScheduler(BenchConfig cfg, DagOptions opts);

  /// Run every plan's cell (victims first); outcomes in plan order.
  /// Identical results to running the plans serially through
  /// ExperimentRunner::run — cells derive randomness from plan_rng only.
  std::vector<AttackOutcome> run(const std::vector<AttackPlan>& plans);

  const DagStats& stats() const { return stats_; }
  /// The DAG of the last run() and its per-node wall-clock (victim nodes
  /// included), for bench reporting.
  const std::vector<DagNode>& nodes() const { return nodes_; }
  const std::vector<double>& node_seconds() const { return node_seconds_; }

 private:
  void run_threads(std::vector<AttackOutcome>& node_out);
  void run_pool(std::vector<AttackOutcome>& node_out, int procs);

  BenchConfig cfg_;
  DagOptions opts_;
  DagStats stats_;
  ExperimentRunner runner_;  ///< key computation + the thread executor
  std::vector<DagNode> nodes_;
  std::vector<double> node_seconds_;
};

}  // namespace imap::core
