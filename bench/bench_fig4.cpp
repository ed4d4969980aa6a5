// Figure 4: test-time attacking curves of SA-RL and the four IMAP attacks on
// the six sparse-reward locomotion tasks — the victim's success probability
// (training-time surrogate) as a function of adversary samples. Lower is a
// stronger attack. Shares its cached runs with bench_table2/3.

#include <iostream>

#include "common/table.h"
#include "core/experiment.h"
#include "grid_runner.h"

using namespace imap;
using core::AttackKind;

namespace {
const std::vector<std::string> kEnvs = {
    "SparseHopper", "SparseWalker2d",        "SparseHalfCheetah",
    "SparseAnt",    "SparseHumanoidStandup", "SparseHumanoid"};

const std::vector<AttackKind> kAttacks = {
    AttackKind::SaRl, AttackKind::ImapSC, AttackKind::ImapPC,
    AttackKind::ImapR, AttackKind::ImapD};
}  // namespace

int main() {
  core::ExperimentRunner runner(bench::config_or_exit("bench_fig4"));
  std::cerr << "bench_fig4: scale=" << runner.config().scale << "\n";

  Table series({"Env", "Attack", "Steps", "VictimSuccess"});

  std::vector<core::AttackPlan> plans;
  for (const auto& env : kEnvs)
    for (const auto attack : kAttacks) {
      core::AttackPlan plan;
      plan.env_name = env;
      plan.attack = attack;
      plans.push_back(plan);
    }
  bench::GridRunner grid(runner, "bench_fig4");
  const auto outcomes = grid.run_plans(plans);

  std::size_t cell = 0;
  for (const auto& env : kEnvs) {
    std::cout << "== " << env << " ==\n";
    for (const auto attack : kAttacks) {
      const auto& outcome = outcomes[cell++];

      // Print ~8 evenly spaced curve points per series.
      const auto& c = outcome.curve;
      std::cout << "  " << core::to_string(attack) << ":";
      const std::size_t stride = std::max<std::size_t>(1, c.size() / 8);
      for (std::size_t i = 0; i < c.size(); i += stride) {
        std::cout << "  " << c[i].steps / 1000 << "k:"
                  << Table::num(c[i].victim_success, 2);
        series.add_row({env, core::to_string(attack),
                        std::to_string(c[i].steps),
                        Table::num(c[i].victim_success, 4)});
      }
      if (!c.empty())
        std::cout << "  (final " << Table::num(c.back().victim_success, 2)
                  << ")";
      std::cout << "\n";
    }
  }

  grid.write_report();
  series.save_csv("fig4.csv");
  std::cout << "\nSeries CSV written to fig4.csv (victim success vs adversary "
               "samples; paper Fig. 4)\n";
  return 0;
}
