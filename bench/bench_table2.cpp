// Table 2: average episode rewards of the victim policies across the nine
// sparse-reward tasks (six locomotion, two navigation, one manipulation)
// under No Attack, Random, SA-RL, the four IMAP attacks and the best
// IMAP+BR variant per task.

#include <iostream>
#include <map>

#include "common/table.h"
#include "core/experiment.h"
#include "grid_runner.h"

using namespace imap;
using core::AttackKind;

namespace {
const std::vector<std::string> kEnvs = {
    "SparseHopper",    "SparseWalker2d",         "SparseHalfCheetah",
    "SparseAnt",       "SparseHumanoidStandup",  "SparseHumanoid",
    "AntUMaze",        "Ant4Rooms",              "FetchReach"};
}

int main() {
  core::ExperimentRunner runner(bench::config_or_exit("bench_table2"));
  std::cerr << "bench_table2: scale=" << runner.config().scale << "\n";

  Table table({"Env", "No Attack", "Random", "SA-RL", "IMAP-SC", "IMAP-PC",
               "IMAP-R", "IMAP-D", "IMAP+BR"});

  std::map<std::string, double> column_sum;
  const std::vector<AttackKind> plain = {AttackKind::None, AttackKind::Random,
                                         AttackKind::SaRl};

  // Per env: 3 plain, 4 IMAP, 4 IMAP+BR cells, in column order.
  std::vector<core::AttackPlan> plans;
  for (const auto& env : kEnvs) {
    auto add_cell = [&](AttackKind attack, bool br) {
      core::AttackPlan plan;
      plan.env_name = env;
      plan.attack = attack;
      plan.bias_reduction = br;
      plans.push_back(plan);
    };
    for (const auto attack : plain) add_cell(attack, false);
    for (const auto attack : core::imap_attacks()) add_cell(attack, false);
    for (const auto attack : core::imap_attacks()) add_cell(attack, true);
  }
  bench::GridRunner grid(runner, "bench_table2");
  const auto outcomes = grid.run_plans(plans);

  std::size_t cell = 0;
  for (const auto& env : kEnvs) {
    std::vector<std::string> row{env};

    for (const auto attack : plain) {
      const auto& outcome = outcomes[cell++];
      row.push_back(Table::pm(outcome.victim_eval.returns.mean,
                              outcome.victim_eval.returns.stddev, 2));
      column_sum[core::to_string(attack)] += outcome.victim_eval.returns.mean;
    }
    for (const auto attack : core::imap_attacks()) {
      const auto& outcome = outcomes[cell++];
      row.push_back(Table::pm(outcome.victim_eval.returns.mean,
                              outcome.victim_eval.returns.stddev, 2));
      column_sum[core::to_string(attack)] += outcome.victim_eval.returns.mean;
    }
    // Best IMAP+BR variant for this task (the paper's last column).
    double best = 1e18, best_std = 0.0;
    std::string best_name;
    for (const auto attack : core::imap_attacks()) {
      const auto& outcome = outcomes[cell++];
      if (outcome.victim_eval.returns.mean < best) {
        best = outcome.victim_eval.returns.mean;
        best_std = outcome.victim_eval.returns.stddev;
        best_name = core::to_string(attack).substr(5);  // "SC" etc.
      }
    }
    row.push_back(Table::pm(best, best_std, 2) + " (" + best_name + ")");
    column_sum["IMAP+BR"] += best;
    table.add_row(std::move(row));
  }
  grid.write_report();

  std::vector<std::string> avg{"Average"};
  for (const std::string col : {"No Attack", "Random", "SA-RL", "IMAP-SC",
                                "IMAP-PC", "IMAP-R", "IMAP-D", "IMAP+BR"})
    avg.push_back(
        Table::num(column_sum[col] / static_cast<double>(kEnvs.size()), 2));
  table.add_row(std::move(avg));

  std::cout << "Table 2 — sparse-reward tasks: victim episode rewards under "
               "attack (mean ± std)\n\n";
  std::cout << table.to_string() << "\n";
  table.save_csv("table2.csv");
  std::cout << "CSV written to table2.csv\n";
  return 0;
}
