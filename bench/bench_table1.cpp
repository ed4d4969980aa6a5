// Table 1: average episode rewards of one vanilla and five robust victims in
// the four dense-reward locomotion tasks under No Attack, Random, SA-RL and
// the four IMAP attacks. Also prints the Sec. 7 headline: the % performance
// drop IMAP inflicts on the WocaR victims.
//
// Honours IMAP_BENCH_SCALE / IMAP_ZOO_DIR / IMAP_SEED. Results are cached
// under <zoo>/results, so reruns are incremental.

#include <algorithm>
#include <iostream>
#include <map>

#include "common/table.h"
#include "core/experiment.h"
#include "env/registry.h"
#include "grid_runner.h"

using namespace imap;
using core::AttackKind;

namespace {

const std::vector<std::string> kEnvs = {"Hopper", "Walker2d", "HalfCheetah",
                                        "Ant"};

std::vector<std::string> victims_for(const std::string& env) {
  // The paper reports no RADIAL/WocaR victims for Ant (Table 1).
  if (env == "Ant") return {"PPO", "ATLA", "SA", "ATLA-SA"};
  return {"PPO", "ATLA", "SA", "ATLA-SA", "RADIAL", "WocaR"};
}

const std::vector<AttackKind> kAttacks = {
    AttackKind::None,   AttackKind::Random, AttackKind::SaRl,
    AttackKind::ImapSC, AttackKind::ImapPC, AttackKind::ImapR,
    AttackKind::ImapD};

}  // namespace

int main() {
  core::ExperimentRunner runner(bench::config_or_exit("bench_table1"));
  std::cerr << "bench_table1: scale=" << runner.config().scale
            << " zoo=" << runner.config().zoo_dir << "\n";

  Table table({"Env", "Victim", "No Attack", "Random", "SA-RL", "IMAP-SC",
               "IMAP-PC", "IMAP-R", "IMAP-D"});

  // The whole grid is enumerable up front; the cells are independent, so
  // run them through the parallel grid harness and format afterwards.
  std::vector<core::AttackPlan> plans;
  for (const auto& env : kEnvs)
    for (const auto& victim : victims_for(env))
      for (const auto attack : kAttacks) {
        core::AttackPlan plan;
        plan.env_name = env;
        plan.defense = victim;
        plan.attack = attack;
        plans.push_back(plan);
      }
  bench::GridRunner grid(runner, "bench_table1");
  const auto outcomes = grid.run_plans(plans);

  // mean_of[env][victim][attack] = mean reward.
  std::map<std::string, std::map<std::string, std::map<std::string, double>>>
      mean_of;

  std::size_t cell = 0;
  for (const auto& env : kEnvs) {
    std::map<std::string, double> column_sum;
    const auto victims = victims_for(env);
    for (const auto& victim : victims) {
      std::vector<std::string> row{env, victim};
      for (const auto attack : kAttacks) {
        const auto& outcome = outcomes[cell++];
        row.push_back(Table::pm(outcome.victim_eval.returns.mean,
                                outcome.victim_eval.returns.stddev));
        mean_of[env][victim][core::to_string(attack)] =
            outcome.victim_eval.returns.mean;
        column_sum[core::to_string(attack)] +=
            outcome.victim_eval.returns.mean;
      }
      table.add_row(std::move(row));
    }
    std::vector<std::string> avg{env, "Average"};
    for (const auto attack : kAttacks)
      avg.push_back(Table::num(column_sum[core::to_string(attack)] /
                                   static_cast<double>(victims.size()),
                               0));
    table.add_row(std::move(avg));
  }
  grid.write_report();

  std::cout << "Table 1 — dense-reward tasks: victim episode rewards under "
               "attack (mean ± std)\n\n";
  std::cout << table.to_string() << "\n";
  table.save_csv("table1.csv");

  // Sec. 7 headline: best-IMAP drop on the WocaR victims.
  std::cout << "IMAP vs WocaR (Sec. 7; paper: 54.58% / 34.07% / 38.10% on "
               "Hopper / Walker2d / HalfCheetah):\n";
  for (const std::string env : {"Hopper", "Walker2d", "HalfCheetah"}) {
    const auto& row = mean_of[env]["WocaR"];
    const double clean = row.at("No Attack");
    double best = clean;
    std::string best_name = "none";
    for (const std::string name : {"IMAP-SC", "IMAP-PC", "IMAP-R", "IMAP-D"}) {
      if (row.at(name) < best) {
        best = row.at(name);
        best_name = name;
      }
    }
    std::cout << "  " << env << ": " << Table::num(clean, 0) << " -> "
              << Table::num(best, 0) << "  (drop "
              << Table::num(100.0 * (1.0 - best / std::max(1.0, clean)), 1)
              << "% via " << best_name << ")\n";
  }
  std::cout << "\nCSV written to table1.csv\n";
  return 0;
}
