// Ablations of the design choices DESIGN.md calls out (beyond the paper's
// own η/ξ ablations in Figs. 6–7):
//
//  A. Attack class: white-box gradient heuristics (FGSM, MAD) vs black-box
//     adversarial policies (SA-RL, IMAP) — the paper's Sec. 2 framing that
//     learned APs dominate one-shot gradient attacks.
//  B. Threat-model relaxation: SA-RL trained on the victim's true reward
//     (its original formulation) vs the black-box surrogate used here.
//  C. State-density estimator: the paper's KNN choice vs an RND
//     prediction-error bonus (Sec. 5.2 argues KNN; this measures it).
//  D. KNN k: sensitivity of IMAP-SC to the neighbour count.
//
// All cells and custom jobs are independent — their Rngs are split up front
// (Rng::split is pure, so the pre-split streams match the old serial code) —
// and run through the parallel grid harness.

#include <iostream>
#include <memory>

#include "attack/gradient_attack.h"
#include "attack/ppo_attacker.h"
#include "common/table.h"
#include "core/experiment.h"
#include "core/rnd.h"
#include "env/registry.h"
#include "grid_runner.h"
#include "scenario/scenario_env.h"

using namespace imap;
using core::AttackKind;

int main() {
  const auto cfg = bench::config_or_exit("bench_ablation");
  core::ExperimentRunner runner(cfg);
  const std::string env_name = "Hopper";
  const auto deploy_env = env::make_env(env_name);
  const double eps = env::spec(env_name).epsilon;
  const auto victim_policy = runner.zoo().victim(env_name, "PPO");
  const auto victim = core::Zoo::as_policy(victim_policy);
  const auto threat = scenario::state_perturbation(env_name, eps);
  const long long steps = runner.default_attack_steps(env_name);
  const int episodes = runner.default_eval_episodes(env_name);
  Rng rng(cfg.seed + 1000);

  bench::GridRunner grid(runner, "bench_ablation");

  // Plan cells shared with bench_table1's cache: A uses the first four, B
  // re-reads the SA-RL cell, C the IMAP-SC cell.
  const std::vector<AttackKind> plan_kinds = {
      AttackKind::None, AttackKind::Random, AttackKind::SaRl,
      AttackKind::ImapPC, AttackKind::ImapSC};
  std::vector<core::AttackPlan> plans;
  for (const auto kind : plan_kinds) {
    core::AttackPlan plan;
    plan.env_name = env_name;
    plan.attack = kind;
    plans.push_back(plan);
  }
  const auto outcomes = grid.run_plans(plans);
  const auto& sarl_outcome = outcomes[2];
  const auto& imap_sc_outcome = outcomes[4];

  // The victim's true reward on `env` under `adversary`'s perturbations.
  const auto evaluate = [&](const rl::Env& env,
                            const rl::PolicyHandle& adversary) {
    Rng er(17);
    return rl::evaluate(
        scenario::ScenarioEnv(env, threat, victim,
                              scenario::RewardMode::VictimTrue),
        adversary, episodes, er);
  };

  // Custom jobs: each owns its env clone and a pre-split Rng stream.
  rl::EvalStats fgsm_eval, mad_eval, relaxed_eval, rnd_eval;
  const std::vector<std::size_t> ks = {1, 3, 8};
  std::vector<rl::EvalStats> k_evals(ks.size());

  std::vector<std::pair<std::string, std::function<void()>>> jobs;
  jobs.emplace_back("A/FGSM", [&, env = std::shared_ptr<rl::Env>(deploy_env->clone())] {
    fgsm_eval = evaluate(*env, attack::make_fgsm_attack(victim_policy, eps));
  });
  jobs.emplace_back("A/MAD", [&, env = std::shared_ptr<rl::Env>(deploy_env->clone())] {
    mad_eval = evaluate(*env, attack::make_mad_attack(victim_policy, eps, 3));
  });
  jobs.emplace_back(
      "B/relaxed-SA-RL",
      [&, env = std::shared_ptr<rl::Env>(deploy_env->clone()), job_rng = rng.split(1)]() mutable {
        attack::PpoAttacker relaxed(
            scenario::ScenarioEnv(*env, threat, victim,
                                  scenario::RewardMode::AdversaryRelaxed),
            {}, job_rng);
        relaxed.train(steps);
        relaxed_eval = evaluate(*env, relaxed.adversary());
      });
  jobs.emplace_back(
      "C/RND",
      [&, env = std::shared_ptr<rl::Env>(deploy_env->clone()), trainer_rng = rng.split(2),
       rnd_rng = rng.split(3)]() mutable {
        scenario::ScenarioEnv attack_env(*env, threat, victim,
                                         scenario::RewardMode::Adversary);
        rl::PpoTrainer trainer(attack_env, rl::PpoOptions{}, trainer_rng);
        core::RndNovelty rnd(attack_env.obs_dim(), 16, rnd_rng);
        trainer.set_intrinsic_hook([&rnd](rl::RolloutBuffer& buf) {
          rnd.compute(buf);
          return 1.0;  // fixed τ, mirroring IMAP-SC without BR
        });
        trainer.train(steps);
        rnd_eval =
            evaluate(*env, rl::PolicyHandle::snapshot(trainer.policy()));
      });
  for (std::size_t i = 0; i < ks.size(); ++i) {
    const std::size_t k = ks[i];
    jobs.emplace_back(
        "D/knn-k=" + std::to_string(k),
        [&, i, k, env = std::shared_ptr<rl::Env>(deploy_env->clone()),
         job_rng = rng.split(100 + k)]() mutable {
          core::ImapOptions opts;
          opts.reg.type = core::RegularizerType::SC;
          opts.reg.knn_k = k;
          opts.surrogate_scale = env->max_steps();
          core::ImapTrainer attacker(
              scenario::ScenarioEnv(*env, threat, victim,
                                    scenario::RewardMode::Adversary),
              opts, job_rng);
          attacker.train(steps);
          k_evals[i] = evaluate(*env, attacker.adversary());
        });
  }
  grid.run_jobs(std::move(jobs));

  // ---------------------------------------------------------------- A
  Table a({"Attack", "Access", "Victim reward"});
  a.add_row({"FGSM", "white-box",
             Table::pm(fgsm_eval.returns.mean, fgsm_eval.returns.stddev)});
  a.add_row({"MAD (3-step PGD)", "white-box",
             Table::pm(mad_eval.returns.mean, mad_eval.returns.stddev)});
  for (std::size_t i = 0; i < 4; ++i) {
    const auto kind = plan_kinds[i];
    const auto& out = outcomes[i];
    a.add_row({core::to_string(kind),
               kind == AttackKind::None || kind == AttackKind::Random
                   ? "—"
                   : "black-box",
               Table::pm(out.victim_eval.returns.mean,
                         out.victim_eval.returns.stddev)});
  }
  std::cout << "Ablation A — attack classes on the vanilla " << env_name
            << " victim:\n\n"
            << a.to_string() << "\n";

  // ---------------------------------------------------------------- B
  Table b({"SA-RL objective", "Victim reward"});
  b.add_row({"-r_E (relaxed, original SA-RL)",
             Table::pm(relaxed_eval.returns.mean,
                       relaxed_eval.returns.stddev)});
  b.add_row({"-r_hat (black-box surrogate, ours)",
             Table::pm(sarl_outcome.victim_eval.returns.mean,
                       sarl_outcome.victim_eval.returns.stddev)});
  std::cout << "Ablation B — threat-model relaxation:\n\n"
            << b.to_string() << "\n";

  // ---------------------------------------------------------------- C
  Table c({"Density estimator", "Victim reward"});
  c.add_row({"RND prediction error",
             Table::pm(rnd_eval.returns.mean, rnd_eval.returns.stddev)});
  c.add_row({"KNN (paper / ours)",
             Table::pm(imap_sc_outcome.victim_eval.returns.mean,
                       imap_sc_outcome.victim_eval.returns.stddev)});
  std::cout << "Ablation C — intrinsic-bonus density estimator:\n\n"
            << c.to_string() << "\n";

  // ---------------------------------------------------------------- D
  Table d({"KNN k", "Victim reward"});
  for (std::size_t i = 0; i < ks.size(); ++i)
    d.add_row({std::to_string(ks[i]),
               Table::pm(k_evals[i].returns.mean, k_evals[i].returns.stddev)});
  std::cout << "Ablation D — KNN neighbour count (IMAP-SC):\n\n"
            << d.to_string();

  grid.write_report();
  a.save_csv("ablation_attack_class.csv");
  b.save_csv("ablation_threat_model.csv");
  c.save_csv("ablation_density.csv");
  d.save_csv("ablation_knn_k.csv");
  std::cout << "\nCSVs written: ablation_*.csv\n";
  return 0;
}
