#pragma once

#include <memory>

#include "env/multiagent.h"
#include "rl/env.h"
#include "rl/evaluate.h"
#include "rl/policy_handle.h"
#include "rl/split_step.h"
#include "scenario/scenario_env.h"

namespace imap::attack {

/// Multi-agent threat model (Sec. 4.3): the Markov game against a frozen
/// victim reduces to a single-player MDP M^α for the adversary. The
/// adversary observes the joint state; its terminal reward is −1 when the
/// victim wins and 0 otherwise (so J_AP = ASR − 1, matching the paper's
/// "ASR = J_AP + 1").
///
/// Also a rl::SplitStepEnv: begin_step banks the adversary action and
/// returns the victim-side observation, finish_step plays the joint step.
class OpponentEnv : public rl::EnvBase<OpponentEnv>, public rl::SplitStepEnv {
 public:
  OpponentEnv(const env::MultiAgentEnv& game, rl::PolicyHandle victim);
  OpponentEnv(const OpponentEnv& other);
  OpponentEnv& operator=(const OpponentEnv&) = delete;

  std::size_t obs_dim() const override { return game_->adversary_obs_dim(); }
  std::size_t act_dim() const override { return game_->adversary_act_dim(); }
  int max_steps() const override { return game_->max_steps(); }
  std::string name() const override { return game_->name() + "+Opponent"; }
  const rl::BoxSpace& action_space() const override {
    return game_->adversary_action_space();
  }

  std::vector<double> reset(Rng& rng) override;
  rl::StepResult step(const std::vector<double>& action) override;

  // SplitStepEnv: step(a) == finish_step(victim.query(begin_step(a))).
  const std::vector<double>& begin_step(
      const std::vector<double>& action) override;
  rl::StepResult finish_step(const std::vector<double>& policy_out) override;
  std::size_t query_dim() const override { return game_->victim_obs_dim(); }
  const rl::PolicyHandle& frozen_policy() const override { return victim_; }

  /// Projections Π_{S^ν}, Π_{S^α} over the adversary observation, for the
  /// multi-agent regularizers.
  std::pair<std::size_t, std::size_t> victim_obs_range() const {
    return game_->victim_obs_range();
  }
  std::pair<std::size_t, std::size_t> adversary_obs_range() const {
    return game_->adversary_obs_range();
  }

 private:
  std::unique_ptr<env::MultiAgentEnv> game_;
  rl::PolicyHandle victim_;
  std::vector<double> cur_obs_v_;
  std::vector<double> pending_act_a_;  ///< begin_step scratch (reused)
  nn::Mlp::Workspace ws_;              ///< step()'s victim queries (per clone)
};

// Forwarders onto the one threat-model path. The traced cell in
// e2ebench/cpp/cell.cpp compiles against these names; ROADMAP item 5(a)
// deletes them together with that cell. Each is one forwarding statement:
// the single-agent threat model is scenario::ScenarioEnv, and evaluation is
// rl::evaluate over its VictimTrue view.

using RewardMode = scenario::RewardMode;

/// A ScenarioEnv over `inner` with one obs_perturb:eps channel.
class StatePerturbationEnv : public scenario::ScenarioEnv {
 public:
  StatePerturbationEnv(const rl::Env& inner, rl::PolicyHandle victim,
                       double eps, RewardMode mode)
      : ScenarioEnv(inner, scenario::state_perturbation(inner.name(), eps),
                    std::move(victim), mode) {}
};

/// rl::evaluate over StatePerturbationEnv(deploy_env, victim, eps,
/// VictimTrue): the victim's TRUE episode rewards and success rate.
rl::EvalStats evaluate_attack(const rl::Env& deploy_env,
                              rl::PolicyHandle victim,
                              const rl::PolicyHandle& adversary, double eps,
                              int episodes, Rng& rng);

/// rl::evaluate over OpponentEnv(game, victim); `stats.success_rate` is the
/// VICTIM's win rate, so ASR = 1 − success_rate.
rl::EvalStats evaluate_opponent_attack(const env::MultiAgentEnv& game,
                                       rl::PolicyHandle victim,
                                       const rl::PolicyHandle& adversary,
                                       int episodes, Rng& rng);

}  // namespace imap::attack
