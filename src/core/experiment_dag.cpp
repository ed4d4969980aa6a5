#include "core/experiment_dag.h"

#include <chrono>
#include <unordered_map>
#include <utility>

#include "common/thread_pool.h"

namespace imap::core {

std::vector<DagNode> build_experiment_dag(
    ExperimentRunner& runner, const std::vector<AttackPlan>& plans,
    std::vector<std::size_t>& node_of_plan) {
  std::vector<DagNode> nodes;
  std::unordered_map<std::string, std::size_t> victim_of;  // checkpoint → node
  std::unordered_map<std::string, std::size_t> attack_of;  // cache key → node
  node_of_plan.assign(plans.size(), 0);
  for (std::size_t i = 0; i < plans.size(); ++i) {
    // Canonicalize before any key is derived: equal scenarios share one
    // attack node however they were spelled, and a scenario cell's victim
    // node is the BASE env's victim (shared with the baseline cells).
    const AttackPlan plan = runner.normalize_plan(plans[i]);
    const std::string vkey =
        runner.zoo().checkpoint_path(plan.env_name, plan.defense);
    auto vit = victim_of.find(vkey);
    if (vit == victim_of.end()) {
      DagNode v;
      v.kind = DagNode::Kind::Victim;
      v.env_name = plan.env_name;
      v.defense = plan.defense;
      vit = victim_of.emplace(vkey, nodes.size()).first;
      nodes.push_back(std::move(v));
    }
    const long long steps = plan.attack_steps
                                ? plan.attack_steps
                                : runner.default_attack_steps(plan.env_name);
    const int episodes = plan.eval_episodes
                             ? plan.eval_episodes
                             : runner.default_eval_episodes(plan.env_name);
    const auto akey = runner.cache_key(plan, steps, episodes);
    auto ait = attack_of.find(akey);
    if (ait == attack_of.end()) {
      DagNode a;
      a.kind = DagNode::Kind::Attack;
      a.env_name = plan.env_name;
      a.plan = plan;
      a.deps.push_back(vit->second);
      ait = attack_of.emplace(akey, nodes.size()).first;
      nodes.push_back(std::move(a));
    }
    node_of_plan[i] = ait->second;
  }
  return nodes;
}

DagScheduler::DagScheduler(BenchConfig cfg) : runner_(std::move(cfg)) {}

std::vector<AttackOutcome> DagScheduler::run(
    const std::vector<AttackPlan>& plans) {
  std::vector<std::size_t> node_of_plan;
  nodes_ = build_experiment_dag(runner_, plans, node_of_plan);
  node_seconds_.assign(nodes_.size(), 0.0);

  // Each attack node has exactly one dependency, its victim.
  std::vector<std::size_t> victims;
  std::vector<std::vector<std::size_t>> attacks_of(nodes_.size());
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    if (nodes_[n].kind == DagNode::Kind::Attack)
      attacks_of[nodes_[n].deps[0]].push_back(n);
    else
      victims.push_back(n);
  }
  std::vector<AttackOutcome> node_out(nodes_.size());
  const auto run_node = [&](std::size_t n) {
    ScopedSerial one_thread_per_node;
    const auto& node = nodes_[n];
    const auto t0 = std::chrono::steady_clock::now();  // imap-check: allow(nondet-source)
    switch (node.kind) {
      case DagNode::Kind::Victim:
        runner_.zoo().victim_shared(node.env_name, node.defense);
        break;
      case DagNode::Kind::Attack:
        node_out[n] = runner_.run(node.plan);
        break;
    }
    const auto t1 = std::chrono::steady_clock::now();  // imap-check: allow(nondet-source)
    node_seconds_[n] = std::chrono::duration<double>(t1 - t0).count();
  };
  // Every victim is a task; once it is trained, its attacks fan out as a
  // nested region, so they overlap victims still training elsewhere. The
  // parallelism is across nodes: each node body runs serially on its
  // thread (results do not depend on it), so at most one cell per thread
  // is in flight.
  //
  // Deadlock invariant: proc::FileLock is not re-entrant (its owner pid is
  // alive, so it is never stolen), and a thread waiting inside a nested
  // parallel_for may run ANY pending task. That is safe only because no
  // task that takes lock L is runnable while L is held: a victim's lock is
  // held only by its own task (victim nodes are deduplicated) and its
  // attacks are submitted after training returns, when they find the
  // checkpoint without locking; a cell's lock is held only by its own task
  // (attack nodes are deduplicated by cache key). The serial node bodies
  // add a second guard: a thread only waits, and so only steals, between
  // nodes, when it holds no lock at all. Keep both when changing this
  // executor.
  parallel_for(
      victims.size(),
      [&](std::size_t v) {
        run_node(victims[v]);
        const auto& attacks = attacks_of[victims[v]];
        parallel_for(
            attacks.size(), [&](std::size_t a) { run_node(attacks[a]); },
            /*grain=*/1);
      },
      /*grain=*/1);

  std::vector<AttackOutcome> out(plans.size());
  for (std::size_t i = 0; i < plans.size(); ++i) {
    out[i] = node_out[node_of_plan[i]];
    out[i].plan = plans[i];
  }
  return out;
}

}  // namespace imap::core
