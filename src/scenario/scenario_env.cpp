#include "scenario/scenario_env.h"

#include <algorithm>

#include "common/check.h"
#include "env/registry.h"

namespace imap::scenario {

namespace {

/// splitmix64 finalizer — decorrelates the family seed from the slot-Rng
/// draw it is mixed with, so nearby seeds name unrelated families.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

ScenarioEnv::ScenarioEnv(const ScenarioSpec& spec, rl::PolicyHandle victim,
                         attack::RewardMode mode)
    : spec_(spec),
      inner_(env::make_env(spec.env)),
      victim_(std::move(victim)),
      mode_(mode),
      pipeline_(spec, inner_->obs_dim(), inner_->act_dim()),
      act_space_(std::max<std::size_t>(1, pipeline_.ctrl_dim()), 1.0) {
  IMAP_CHECK(static_cast<bool>(victim_));
  for (const auto& r : spec_.dr)
    if (r.key == "mass" || r.key == "gain")
      IMAP_CHECK_MSG(inner_->apply_dynamics(rl::DynamicsScales{}),
                     "scenario: environment '"
                         << spec_.env
                         << "' does not support dynamics randomization");
}

ScenarioEnv::ScenarioEnv(const ScenarioEnv& other)
    : spec_(other.spec_),
      inner_(other.inner_->clone()),
      victim_(other.victim_),
      mode_(other.mode_),
      pipeline_(other.pipeline_),
      act_space_(other.act_space_),
      dynamics_(other.dynamics_),
      budget_scale_(other.budget_scale_),
      cur_obs_(other.cur_obs_),
      pending_ctrl_(other.pending_ctrl_) {}

void ScenarioEnv::apply_dr(Rng& rng) {
  if (spec_.dr.empty()) return;
  // ONE slot-Rng draw per reset, whatever the dr ranges — the factor stream
  // is a child keyed by (that draw XOR the mixed family seed), so the same
  // spec@seed draws the same family at the same slot-stream position on any
  // workers×slots×procs factorization.
  const std::uint64_t u = rng.next_u64();
  Rng dr_rng(spec_.has_seed ? (u ^ mix(spec_.seed)) : u);
  dynamics_ = rl::DynamicsScales{};
  budget_scale_ = 1.0;
  bool dynamics_drawn = false;
  for (const auto& r : spec_.dr) {  // canonical (sorted) order
    const double f = dr_rng.uniform(r.lo, r.hi);
    if (r.key == "mass") {
      dynamics_.mass = f;
      dynamics_drawn = true;
    } else if (r.key == "gain") {
      dynamics_.gain = f;
      dynamics_drawn = true;
    } else {
      budget_scale_ = f;
    }
  }
  if (dynamics_drawn) inner_->apply_dynamics(dynamics_);
}

std::vector<double> ScenarioEnv::reset(Rng& rng) {
  apply_dr(rng);
  auto obs = inner_->reset(rng);
  pipeline_.begin_episode(rng, budget_scale_);
  pipeline_.corrupt_obs(obs);
  cur_obs_ = std::move(obs);
  return cur_obs_;
}

const std::vector<double>& ScenarioEnv::begin_step(
    const std::vector<double>& action) {
  IMAP_CHECK(action.size() == act_dim());
  pending_ctrl_ = act_space_.clamp(action);
  perturbed_ = cur_obs_;
  pipeline_.perturb_obs(perturbed_, pending_ctrl_);
  return perturbed_;
}

rl::StepResult ScenarioEnv::finish_step(
    const std::vector<double>& policy_out) {
  auto victim_action = inner_->action_space().clamp(policy_out);
  if (pipeline_.has_act_perturb()) {
    pipeline_.perturb_act(victim_action, pending_ctrl_);
    victim_action = inner_->action_space().clamp(std::move(victim_action));
  }
  rl::StepResult sr = inner_->step(victim_action);
  pipeline_.corrupt_obs(sr.obs);
  cur_obs_ = sr.obs;

  if (mode_ == attack::RewardMode::Adversary)
    sr.reward = -sr.surrogate;
  else if (mode_ == attack::RewardMode::AdversaryRelaxed)
    sr.reward = -sr.reward;
  // VictimTrue keeps the inner reward untouched.
  return sr;
}

rl::StepResult ScenarioEnv::step(const std::vector<double>& action) {
  return finish_step(victim_.query(begin_step(action), ws_));
}

std::unique_ptr<ScenarioEnv> make_scenario_env(const ScenarioSpec& spec,
                                               rl::PolicyHandle victim,
                                               attack::RewardMode mode) {
  return std::make_unique<ScenarioEnv>(spec, std::move(victim), mode);
}

}  // namespace imap::scenario
