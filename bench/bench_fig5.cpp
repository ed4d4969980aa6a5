// Figure 5: learning curves of AP-MARL vs IMAP-PC+BR in the two two-player
// zero-sum competitive games, reported as the adversary's attacking success
// rate (ASR = 1 − victim win rate) over training, plus the final evaluated
// ASR for each method (paper: 59.64% → 83.91% in YouShallNotPass and
// 47.02% → 56.96% in KickAndDefend).

#include <iostream>

#include "common/table.h"
#include "core/experiment.h"
#include "grid_runner.h"

using namespace imap;
using core::AttackKind;

int main() {
  core::ExperimentRunner runner(bench::config_or_exit("bench_fig5"));
  std::cerr << "bench_fig5: scale=" << runner.config().scale << "\n";

  Table series({"Game", "Attack", "Steps", "ASR"});
  Table final_table({"Game", "AP-MARL ASR", "IMAP-PC+BR ASR"});

  const std::vector<std::string> games = {"YouShallNotPass", "KickAndDefend"};
  std::vector<core::AttackPlan> plans;
  for (const auto& game : games)
    for (const bool imap : {false, true}) {
      core::AttackPlan plan;
      plan.env_name = game;
      plan.attack = imap ? AttackKind::ImapPC : AttackKind::ApMarl;
      plan.bias_reduction = imap;
      plans.push_back(plan);
    }
  bench::GridRunner grid(runner, "bench_fig5");
  const auto outcomes = grid.run_plans(plans);

  std::size_t cell = 0;
  for (const auto& game : games) {
    std::cout << "== " << game << " ==\n";
    std::vector<std::string> final_row{game};
    for (const bool imap : {false, true}) {
      const std::string label = imap ? "IMAP-PC+BR" : "AP-MARL";
      const auto& outcome = outcomes[cell++];

      std::cout << "  " << label << " ASR curve:";
      const auto& c = outcome.curve;
      const std::size_t stride = std::max<std::size_t>(1, c.size() / 8);
      for (std::size_t i = 0; i < c.size(); i += stride) {
        const double asr = 1.0 - c[i].victim_success;
        std::cout << "  " << c[i].steps / 1000 << "k:" << Table::num(asr, 2);
        series.add_row({game, label, std::to_string(c[i].steps),
                        Table::num(asr, 4)});
      }
      std::cout << "\n";
      const double final_asr = outcome.asr();
      std::cout << "  " << label
                << " final evaluated ASR: " << Table::num(100 * final_asr, 2)
                << "%\n";
      final_row.push_back(Table::num(100 * final_asr, 2) + "%");
    }
    final_table.add_row(std::move(final_row));
  }

  std::cout << "\nFinal attacking success rates (paper: YSNP 59.64% vs "
               "83.91%; KAD 47.02% vs 56.96%):\n\n"
            << final_table.to_string();
  grid.write_report();
  series.save_csv("fig5.csv");
  std::cout << "Series CSV written to fig5.csv\n";
  return 0;
}
