// Figure 7: ablation on ξ, the mixing between the adversary-marginal and
// victim-marginal coverage terms of the multi-agent PC regularizer (Eq. 9):
// ξ = 0 explores only the adversary's own state space, ξ = 1 only the
// victim's. The paper's finding: the adversary-side term is critical and
// the victim-side term adds a further boost (robust across ξ).

#include <iostream>

#include "common/table.h"
#include "core/experiment.h"
#include "grid_runner.h"

using namespace imap;
using core::AttackKind;

int main() {
  core::ExperimentRunner runner(bench::config_or_exit("bench_fig7"));
  std::cerr << "bench_fig7: scale=" << runner.config().scale << "\n";

  const std::vector<double> xis = {0.0, 0.25, 0.5, 0.75, 1.0};
  Table table({"Game", "xi", "ASR"});

  const std::vector<std::string> games = {"YouShallNotPass", "KickAndDefend"};
  std::vector<core::AttackPlan> plans;
  for (const auto& game : games)
    for (const double xi : xis) {
      core::AttackPlan plan;
      plan.env_name = game;
      plan.attack = AttackKind::ImapPC;
      plan.bias_reduction = true;
      plan.xi = xi;
      plans.push_back(plan);
    }
  bench::GridRunner grid(runner, "bench_fig7");
  const auto outcomes = grid.run_plans(plans);

  std::size_t cell = 0;
  for (const auto& game : games) {
    std::cout << "== " << game << " (IMAP-PC+BR, sweeping xi) ==\n";
    for (const double xi : xis) {
      const auto& outcome = outcomes[cell++];
      std::cout << "  xi=" << xi
                << ": ASR=" << Table::num(100 * outcome.asr(), 2) << "%\n";
      table.add_row(
          {game, Table::num(xi, 2), Table::num(100 * outcome.asr(), 2) + "%"});
    }
  }

  std::cout << "\n" << table.to_string();
  grid.write_report();
  table.save_csv("fig7.csv");
  std::cout << "CSV written to fig7.csv (paper Fig. 7: robust to xi)\n";
  return 0;
}
