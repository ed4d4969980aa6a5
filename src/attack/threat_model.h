#pragma once

#include <memory>

#include "env/multiagent.h"
#include "rl/env.h"
#include "rl/evaluate.h"
#include "rl/policy_handle.h"
#include "rl/split_step.h"

namespace imap::attack {

/// Whose reward the wrapper reports. Attack TRAINING uses Adversary
/// (J_AP = −r̂, the black-box surrogate objective, Eq. 3); attack EVALUATION
/// uses VictimTrue so the harness can report the victim's real episode
/// rewards J_E^ν under attack (the paper's Table 1/2 metric).
/// AdversaryRelaxed is the ORIGINAL SA-RL threat model (paper Sec. 4.2:
/// "SA-RL relaxed the second assumption"): the adversary trains on the
/// negated TRUE victim reward −r_E^ν — information a black-box attacker
/// would not have. Kept for the ablation bench.
enum class RewardMode { Adversary, VictimTrue, AdversaryRelaxed };

/// Single-agent threat model (Sec. 4.3): the attacker observes the true
/// environment state s and injects a perturbation a^α with ‖a^α‖∞ ≤ ε into
/// the victim's observation; the frozen victim then acts on s + a^α.
///
/// As an rl::Env, the *agent* is the adversary: actions are normalised
/// perturbation directions in [−1,1]^obs_dim scaled by ε.
///
/// The victim query is exposed through rl::SplitStepEnv (begin_step returns
/// the perturbed observation, finish_step consumes the victim's raw output),
/// so the vectorized rollout engine can answer many wrapper instances with
/// one batched victim forward when the handle is network-backed.
class StatePerturbationEnv : public rl::EnvBase<StatePerturbationEnv>,
                             public rl::SplitStepEnv {
 public:
  StatePerturbationEnv(const rl::Env& inner, rl::PolicyHandle victim,
                       double eps, RewardMode mode);
  StatePerturbationEnv(const StatePerturbationEnv& other);
  StatePerturbationEnv& operator=(const StatePerturbationEnv&) = delete;

  std::size_t obs_dim() const override { return inner_->obs_dim(); }
  std::size_t act_dim() const override { return inner_->obs_dim(); }
  int max_steps() const override { return inner_->max_steps(); }
  std::string name() const override { return inner_->name() + "+StatePerturb"; }
  const rl::BoxSpace& action_space() const override { return act_space_; }

  std::vector<double> reset(Rng& rng) override;
  rl::StepResult step(const std::vector<double>& action) override;

  // SplitStepEnv: step(a) == finish_step(victim.query(begin_step(a))).
  const std::vector<double>& begin_step(
      const std::vector<double>& action) override;
  rl::StepResult finish_step(const std::vector<double>& policy_out) override;
  std::size_t query_dim() const override { return inner_->obs_dim(); }
  const rl::PolicyHandle& frozen_policy() const override { return victim_; }

  double epsilon() const { return eps_; }
  const rl::Env& inner() const { return *inner_; }

 private:
  std::unique_ptr<rl::Env> inner_;
  rl::PolicyHandle victim_;
  double eps_;
  RewardMode mode_;
  rl::BoxSpace act_space_;
  std::vector<double> cur_obs_;
  std::vector<double> perturbed_;  ///< begin_step scratch (reused)
  nn::Mlp::Workspace ws_;          ///< step()'s victim queries (per clone)
};

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

/// Evaluate a single-agent attack: roll the deployment env under the frozen
/// victim while `adversary` perturbs its observations; reports the victim's
/// TRUE episode rewards and success rate.
rl::EvalStats evaluate_attack(const rl::Env& deploy_env,
                              rl::PolicyHandle victim,
                              const rl::PolicyHandle& adversary, double eps,
                              int episodes, Rng& rng);

/// Evaluate a multi-agent attack; `stats.success_rate` is the VICTIM's win
/// rate, so ASR = 1 − success_rate.
rl::EvalStats evaluate_opponent_attack(const env::MultiAgentEnv& game,
                                       rl::PolicyHandle victim,
                                       const rl::PolicyHandle& adversary,
                                       int episodes, Rng& rng);

}  // namespace imap::attack
