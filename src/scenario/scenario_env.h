#pragma once

#include <memory>

#include "attack/threat_model.h"
#include "rl/env.h"
#include "rl/policy_handle.h"
#include "rl/split_step.h"
#include "scenario/channels.h"
#include "scenario/spec.h"

namespace imap::scenario {

/// One scenario instance: the base environment wrapped in the full
/// perturbation-channel pipeline plus per-reset domain randomization, hosted
/// behind the same rl::SplitStepEnv contract as attack::StatePerturbationEnv
/// — so the vectorized rollout engine still answers every lockstep slot's
/// victim query with ONE batched forward per tick, whatever the channel
/// stack.
///
/// As an rl::Env the *agent* is the adversary; its action is the
/// concatenation of the controlled channels' slices (see ChannelPipeline).
/// A scenario with no controlled channel exposes one ignored dummy action
/// dim so PPO machinery and null attacks keep working.
///
/// Determinism: each reset draws, from the SLOT Rng it is given and in fixed
/// order, (1) one u64 for the dr factors when dr ranges are present — mixed
/// with the family seed, so `spec@7` names one reproducible family — then
/// (2) the inner env's own reset draws, then (3) one reseed u64 per
/// stochastic channel present. Everything downstream is a pure function of
/// those draws and the action sequence, so randomized rollouts are
/// bit-identical across any workers×slots×procs factorization and episodes
/// replay exactly from their pre-reset Rng state (snapshot restore).
class ScenarioEnv : public rl::EnvBase<ScenarioEnv>, public rl::SplitStepEnv {
 public:
  ScenarioEnv(const ScenarioSpec& spec, rl::PolicyHandle victim,
              attack::RewardMode mode);
  ScenarioEnv(const ScenarioEnv& other);
  ScenarioEnv& operator=(const ScenarioEnv&) = delete;

  std::size_t obs_dim() const override { return inner_->obs_dim(); }
  std::size_t act_dim() const override { return act_space_.dim(); }
  int max_steps() const override { return inner_->max_steps(); }
  /// The canonical scenario string — the identity used in cache keys.
  std::string name() const override { return spec_.canonical(); }
  const rl::BoxSpace& action_space() const override { return act_space_; }

  std::vector<double> reset(Rng& rng) override;
  rl::StepResult step(const std::vector<double>& action) override;

  // SplitStepEnv: step(a) == finish_step(victim.query(begin_step(a))).
  const std::vector<double>& begin_step(
      const std::vector<double>& action) override;
  rl::StepResult finish_step(const std::vector<double>& policy_out) override;
  std::size_t query_dim() const override { return inner_->obs_dim(); }
  const rl::PolicyHandle& frozen_policy() const override { return victim_; }

  const ScenarioSpec& spec() const { return spec_; }
  double epsilon() const { return spec_.epsilon(); }
  const rl::Env& inner() const { return *inner_; }
  /// Remaining ε budget in the current episode (infinity when unbudgeted).
  double budget_remaining() const { return pipeline_.budget_remaining(); }
  /// Dynamics scales drawn at the last reset (1/1 without mass/gain dr).
  const rl::DynamicsScales& dynamics() const { return dynamics_; }

 private:
  void apply_dr(Rng& rng);

  ScenarioSpec spec_;
  std::unique_ptr<rl::Env> inner_;
  rl::PolicyHandle victim_;
  attack::RewardMode mode_;
  ChannelPipeline pipeline_;
  rl::BoxSpace act_space_;
  rl::DynamicsScales dynamics_;
  double budget_scale_ = 1.0;
  std::vector<double> cur_obs_;
  std::vector<double> pending_ctrl_;  ///< clamped action, begin->finish
  std::vector<double> perturbed_;     ///< begin_step scratch (reused)
  nn::Mlp::Workspace ws_;             ///< step()'s victim queries (per clone)
};

/// Build the attack/evaluation env for a scenario: RewardMode::Adversary for
/// attack training, RewardMode::VictimTrue for evaluation (exactly the
/// threat_model.h conventions).
std::unique_ptr<ScenarioEnv> make_scenario_env(const ScenarioSpec& spec,
                                               rl::PolicyHandle victim,
                                               attack::RewardMode mode);

}  // namespace imap::scenario
