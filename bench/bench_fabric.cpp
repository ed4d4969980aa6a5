// bench_fabric: the DAG-scheduler grid probe, recorded in the tracked
// BENCH_fabric.json (see README "Benchmarks"). A small victim→attack grid
// runs once through the DAG scheduler serially and once on N worker
// processes (fresh stores, so nothing is cached); the probe verifies every
// outcome is bit-identical and records grid cells/s plus per-node
// wall-clock.
//
// On a single-hardware-thread runner the N-process leg measures fork and
// framing overhead rather than parallel speedup — hardware_threads is
// recorded precisely so readers can tell which regime a row came from;
// expect linear-minus-overhead scaling per available core, capped by the
// grid's critical path (the victim node every attack cell depends on).

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/config.h"
#include "core/experiment_dag.h"
#include "grid_runner.h"

using namespace imap;

namespace {

/// Order-sensitive checksum of one attack outcome (eval stats + curve).
double outcome_checksum(const core::AttackOutcome& out) {
  double sum = out.victim_eval.returns.mean + out.victim_eval.returns.stddev +
               static_cast<double>(out.victim_eval.returns.episodes) +
               out.victim_eval.success_rate + out.victim_eval.mean_length;
  for (const double v : out.victim_eval.episode_returns) sum += v;
  for (const auto& p : out.curve)
    sum += static_cast<double>(p.steps) + p.victim_success + p.tau;
  return sum;
}

std::vector<core::AttackPlan> grid_plans() {
  std::vector<core::AttackPlan> plans;
  for (const auto& [env, kind] :
       std::vector<std::pair<std::string, core::AttackKind>>{
           {"Hopper", core::AttackKind::None},
           {"Hopper", core::AttackKind::ImapPC},
           {"SparseHopper", core::AttackKind::ImapSC}}) {
    core::AttackPlan p;
    p.env_name = env;
    p.attack = kind;
    p.attack_steps = 4096;
    p.eval_episodes = 10;
    plans.push_back(p);
  }
  return plans;
}

/// Run the probe grid once at a given width into a fresh store; returns
/// (seconds, per-plan outcome checksums, per-node seconds with labels).
std::pair<double, std::vector<double>> grid_probe_run(
    int procs, const std::string& zoo,
    std::vector<std::pair<std::string, double>>* node_secs) {
  std::filesystem::remove_all(zoo);
  BenchConfig cfg = BenchConfig::from_env();
  cfg.zoo_dir = zoo;
  core::DagOptions dopts;
  dopts.procs = procs;
  core::DagScheduler sched(cfg, dopts);
  const auto plans = grid_plans();
  const auto t0 = std::chrono::steady_clock::now();
  const auto out = sched.run(plans);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::vector<double> sums;
  for (const auto& o : out) sums.push_back(outcome_checksum(o));
  if (node_secs) {
    const auto& nodes = sched.nodes();
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const auto& n = nodes[i];
      std::string label = n.kind == core::DagNode::Kind::Attack
                              ? n.plan.env_name + "/" +
                                    core::to_string(n.plan.attack)
                              : "victim/" + n.env_name;
      for (auto& c : label)
        if (c == ' ') c = '-';
      node_secs->emplace_back(std::move(label), sched.node_seconds()[i]);
    }
  }
  std::filesystem::remove_all(zoo);
  return {secs, sums};
}

bool grid_probe(int fabric_procs, std::ostringstream& os) {
  const auto [serial_s, serial_sums] =
      grid_probe_run(1, "./bench_fabric_zoo_p1", nullptr);
  std::vector<std::pair<std::string, double>> node_secs;
  const auto [fabric_s, fabric_sums] =
      grid_probe_run(fabric_procs, "./bench_fabric_zoo_pn", &node_secs);
  const double speedup = fabric_s > 0.0 ? serial_s / fabric_s : 1.0;
  const bool identical = serial_sums == fabric_sums;
  const double cells = static_cast<double>(grid_plans().size());
  os.precision(3);
  os << "\"grid\": {\"cells\": " << grid_plans().size()
     << ", \"procs\": " << fabric_procs << ", \"p1_s\": " << serial_s
     << ", \"pn_s\": " << fabric_s
     << ", \"p1_cells_per_s\": " << (serial_s > 0.0 ? cells / serial_s : 0.0)
     << ", \"pn_cells_per_s\": " << (fabric_s > 0.0 ? cells / fabric_s : 0.0)
     << ", \"speedup\": " << speedup
     << ", \"traces_identical\": " << (identical ? "true" : "false")
     << ", \"node_wall_s\": {";
  for (std::size_t i = 0; i < node_secs.size(); ++i) {
    if (i) os << ", ";
    os << '"' << node_secs[i].first << "\": " << node_secs[i].second;
  }
  os << "}}";
  std::cerr << "bench_fabric grid probe: 1-proc " << serial_s << "s vs "
            << fabric_procs << "-proc " << fabric_s << "s (" << speedup
            << "x); outcomes " << (identical ? "identical" : "DIVERGED")
            << "\n";
  return identical;
}

}  // namespace

int main() {
  const unsigned hw = std::thread::hardware_concurrency();
  const int procs =
      std::max(2, std::min(4, static_cast<int>(hw == 0 ? 1 : hw)));
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os << "{\"hardware_threads\": " << hw << ", ";
  const bool grid_ok = grid_probe(procs, os);
  os << "}";
  bench::write_report_entry("BENCH_fabric.json", "bench_fabric", os.str());
  std::cerr << "bench_fabric -> BENCH_fabric.json\n";
  // Speedups vary with the host; identity never may. Nonzero exit makes the
  // ci bench-smoke stage a real gate on trace divergence.
  return grid_ok ? 0 : 1;
}
