#pragma once

#include <string>
#include <vector>

#include "common/config.h"
#include "core/experiment.h"

namespace imap::core {

/// One node of the experiment dependency DAG. The paper's grid factors as
/// victim training (per victim checkpoint) → attack training → evaluation;
/// attack cells of the same victim are independent once its checkpoint
/// exists, so they parallelise freely.
struct DagNode {
  enum class Kind { Victim, Attack };
  Kind kind = Kind::Attack;
  std::string env_name;  ///< victims: env the zoo request names; attacks: task
  std::string defense;   ///< victim nodes only (games ignore it)
  AttackPlan plan;       ///< attack nodes only
  std::vector<std::size_t> deps;  ///< node indices that must finish first
};

/// Build the dependency DAG for `plans`: one victim node per victim
/// checkpoint (Zoo::checkpoint_path, so sparse tasks share their dense
/// counterpart's victim), one attack node per unique cache key, and each
/// attack depending on its victim. `node_of_plan[i]` maps plan i to its
/// (possibly shared) attack node.
std::vector<DagNode> build_experiment_dag(
    ExperimentRunner& runner, const std::vector<AttackPlan>& plans,
    std::vector<std::size_t>& node_of_plan);

/// The one planner and executor for experiment grids: benches and
/// imap_serve attack jobs all run their plans through it.
///
/// Every victim node is a task on the thread pool; once a victim is trained
/// its attack nodes fan out as a nested region, so attacks of finished
/// victims overlap victims still training. Each node body runs serially on
/// its thread. Under ScopedSerial / IMAP_THREADS=1 this is a plain serial
/// loop.
///
/// Crash recovery lives in the store, not here: per-cell file locks (a dead
/// owner's lock is stolen), atomic tmp+rename writes, resumable per-cell
/// snapshots and the result cache keyed by cache_key. Re-running a grid
/// over the store an interrupted run left behind resumes every cell
/// bit-identically, and concurrent invocations over one store never
/// duplicate a training run.
class DagScheduler {
 public:
  explicit DagScheduler(BenchConfig cfg);

  /// Run every plan's cell (victims first); outcomes in plan order.
  /// Identical results to running the plans serially through
  /// ExperimentRunner::run — cells derive randomness from plan_rng only.
  std::vector<AttackOutcome> run(const std::vector<AttackPlan>& plans);

  /// The DAG of the last run() and its per-node wall-clock (victim nodes
  /// included), for bench reporting.
  const std::vector<DagNode>& nodes() const { return nodes_; }
  const std::vector<double>& node_seconds() const { return node_seconds_; }

 private:
  ExperimentRunner runner_;  ///< key computation + every node body
  std::vector<DagNode> nodes_;
  std::vector<double> node_seconds_;
};

}  // namespace imap::core
