// Table 3 (Appendix C): the full IMAP+BR grid on the nine sparse-reward
// tasks — every IMAP variant with and without Bias-Reduction, next to the
// SA-RL baseline. Shares its cached runs with bench_table2.

#include <iostream>

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
  core::ExperimentRunner runner(bench::config_or_exit("bench_table3"));
  std::cerr << "bench_table3: scale=" << runner.config().scale << "\n";

  Table table({"Env", "SA-RL", "IMAP-SC", "IMAP-PC", "IMAP-R", "IMAP-D",
               "IMAP-SC+BR", "IMAP-PC+BR", "IMAP-R+BR", "IMAP-D+BR"});

  // Per env: SA-RL, 4 IMAP, 4 IMAP+BR cells, in column order.
  std::vector<core::AttackPlan> plans;
  for (const auto& env : kEnvs) {
    auto add_cell = [&](AttackKind attack, bool br) {
      core::AttackPlan plan;
      plan.env_name = env;
      plan.attack = attack;
      plan.bias_reduction = br;
      plans.push_back(plan);
    };
    add_cell(AttackKind::SaRl, false);
    for (const auto attack : core::imap_attacks()) add_cell(attack, false);
    for (const auto attack : core::imap_attacks()) add_cell(attack, true);
  }
  bench::GridRunner grid(runner, "bench_table3");
  const auto outcomes = grid.run_plans(plans);

  int br_improves = 0, br_cells = 0;
  std::size_t cell = 0;
  for (const auto& env : kEnvs) {
    std::vector<std::string> row{env};

    const auto& sarl = outcomes[cell++].victim_eval.returns;
    row.push_back(Table::pm(sarl.mean, sarl.stddev, 2));
    std::vector<double> plain_means;
    for (std::size_t i = 0; i < core::imap_attacks().size(); ++i) {
      const auto& r = outcomes[cell++].victim_eval.returns;
      plain_means.push_back(r.mean);
      row.push_back(Table::pm(r.mean, r.stddev, 2));
    }
    std::size_t i = 0;
    for (std::size_t j = 0; j < core::imap_attacks().size(); ++j) {
      const auto& r = outcomes[cell++].victim_eval.returns;
      row.push_back(Table::pm(r.mean, r.stddev, 2));
      ++br_cells;
      if (r.mean < plain_means[i++] - 1e-9) ++br_improves;
    }
    table.add_row(std::move(row));
  }
  grid.write_report();

  std::cout << "Table 3 — sparse-reward tasks: the full IMAP / IMAP+BR grid\n\n";
  std::cout << table.to_string() << "\n";
  std::cout << "BR improves the matching IMAP variant in " << br_improves
            << "/" << br_cells << " cells (paper: about half).\n";
  table.save_csv("table3.csv");
  std::cout << "CSV written to table3.csv\n";
  return 0;
}
