#pragma once

#include <memory>

#include "rl/env.h"
#include "rl/policy_handle.h"
#include "rl/split_step.h"
#include "scenario/channels.h"
#include "scenario/spec.h"

namespace imap::scenario {

/// Whose reward the threat-model env reports. Attack TRAINING uses Adversary
/// (J_AP = −r̂, the black-box surrogate objective, Eq. 3); attack EVALUATION
/// uses VictimTrue so the harness can report the victim's real episode
/// rewards J_E^ν under attack (the paper's Table 1/2 metric).
/// AdversaryRelaxed is the ORIGINAL SA-RL threat model (paper Sec. 4.2:
/// "SA-RL relaxed the second assumption"): the adversary trains on the
/// negated TRUE victim reward −r_E^ν — information a black-box attacker
/// would not have. Kept for the ablation bench.
enum class RewardMode { Adversary, VictimTrue, AdversaryRelaxed };

/// The single-agent threat model (Sec. 4.3) and every scenario built on it:
/// an inner environment wrapped in the perturbation-channel pipeline plus
/// per-reset domain randomization. With one `obs_perturb:ε` channel it is
/// the paper's state adversary — the attacker observes the true state s and
/// the frozen victim acts on s + a^α with ‖a^α‖∞ ≤ ε.
///
/// The victim query is exposed through rl::SplitStepEnv (begin_step returns
/// the perturbed observation, finish_step consumes the victim's raw output),
/// so the vectorized rollout engine answers every lockstep slot's victim
/// query with ONE batched forward per tick, whatever the channel stack.
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
/// replay exactly from their pre-reset Rng state (snapshot restore). An
/// `obs_perturb`-only scenario draws nothing but the inner env's own draws.
class ScenarioEnv : public rl::EnvBase<ScenarioEnv>, public rl::SplitStepEnv {
 public:
  /// The scenario over a given inner env; `spec.env` only names it (the
  /// canonical string, name()), and the channels and dr apply to `inner`.
  ScenarioEnv(const rl::Env& inner, ScenarioSpec spec,
              rl::PolicyHandle victim, RewardMode mode);
  /// The scenario over its registry env `spec.env`.
  ScenarioEnv(const ScenarioSpec& spec, rl::PolicyHandle victim,
              RewardMode mode);
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
  RewardMode mode_;
  ChannelPipeline pipeline_;
  rl::BoxSpace act_space_;
  rl::DynamicsScales dynamics_;
  double budget_scale_ = 1.0;
  std::vector<double> cur_obs_;
  std::vector<double> pending_ctrl_;  ///< clamped action, begin->finish
  std::vector<double> perturbed_;     ///< begin_step scratch (reused)
  nn::Mlp::Workspace ws_;             ///< step()'s victim queries (per clone)
};

}  // namespace imap::scenario
