// Figure 6: ablation on the Bias-Reduction dual step size η (Eq. 17) —
// IMAP-PC+BR under η ∈ {0.5, 1, 2, 5} on one sparse single-agent task and
// one competitive game. The paper's finding: IMAP is insensitive to η, with
// larger step sizes slightly better.

#include <iostream>

#include "common/table.h"
#include "core/experiment.h"
#include "grid_runner.h"

using namespace imap;
using core::AttackKind;

int main() {
  core::ExperimentRunner runner(bench::config_or_exit("bench_fig6"));
  std::cerr << "bench_fig6: scale=" << runner.config().scale << "\n";

  const std::vector<double> etas = {0.5, 1.0, 2.0, 5.0};
  Table table({"Task", "eta", "Victim performance", "Attack metric"});

  const std::vector<std::string> envs = {"SparseHopper", "YouShallNotPass"};
  std::vector<core::AttackPlan> plans;
  for (const auto& env : envs)
    for (const double eta : etas) {
      core::AttackPlan plan;
      plan.env_name = env;
      plan.attack = AttackKind::ImapPC;
      plan.bias_reduction = true;
      plan.eta = eta;
      plans.push_back(plan);
    }
  bench::GridRunner grid(runner, "bench_fig6");
  const auto outcomes = grid.run_plans(plans);

  std::size_t cell = 0;
  for (const auto& env : envs) {
    std::cout << "== " << env << " (IMAP-PC+BR, sweeping eta) ==\n";
    for (const double eta : etas) {
      const auto& outcome = outcomes[cell++];
      const bool game = env == "YouShallNotPass";
      const double metric = game ? outcome.asr()
                                 : outcome.victim_eval.returns.mean;
      std::cout << "  eta=" << eta << ": victim="
                << Table::num(outcome.victim_eval.returns.mean, 2)
                << (game ? "  ASR=" + Table::num(100 * outcome.asr(), 1) + "%"
                         : "")
                << "\n";
      table.add_row({env, Table::num(eta, 1),
                     Table::pm(outcome.victim_eval.returns.mean,
                               outcome.victim_eval.returns.stddev, 2),
                     game ? Table::num(100 * metric, 2) + "% ASR"
                          : Table::num(metric, 2)});
    }
  }

  std::cout << "\n" << table.to_string();
  grid.write_report();
  table.save_csv("fig6.csv");
  std::cout << "CSV written to fig6.csv (paper Fig. 6: robust to eta)\n";
  return 0;
}
