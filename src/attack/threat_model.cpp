#include "attack/threat_model.h"

#include <algorithm>

#include "common/check.h"
#include "scenario/channels.h"

namespace imap::attack {

StatePerturbationEnv::StatePerturbationEnv(const rl::Env& inner,
                                           rl::PolicyHandle victim, double eps,
                                           RewardMode mode)
    : inner_(inner.clone()),
      victim_(std::move(victim)),
      eps_(eps),
      mode_(mode),
      act_space_(inner.obs_dim(), 1.0) {
  IMAP_CHECK(eps_ >= 0.0);
  IMAP_CHECK(static_cast<bool>(victim_));
}

StatePerturbationEnv::StatePerturbationEnv(const StatePerturbationEnv& other)
    : inner_(other.inner_->clone()),
      victim_(other.victim_),
      eps_(other.eps_),
      mode_(other.mode_),
      act_space_(other.act_space_),
      cur_obs_(other.cur_obs_) {}

std::vector<double> StatePerturbationEnv::reset(Rng& rng) {
  cur_obs_ = inner_->reset(rng);
  return cur_obs_;
}

const std::vector<double>& StatePerturbationEnv::begin_step(
    const std::vector<double>& action) {
  IMAP_CHECK(action.size() == inner_->obs_dim());
  const auto a = act_space_.clamp(action);

  // Perturb the victim's view: s + ε·a^α (ℓ∞ budget by construction) — the
  // shared obs_perturb channel primitive, bit-identical to the historical
  // in-place loop.
  perturbed_ = cur_obs_;
  scenario::apply_obs_perturb(perturbed_, a.data(), eps_);
  return perturbed_;
}

rl::StepResult StatePerturbationEnv::finish_step(
    const std::vector<double>& policy_out) {
  const auto victim_action = inner_->action_space().clamp(policy_out);
  rl::StepResult sr = inner_->step(victim_action);
  cur_obs_ = sr.obs;

  if (mode_ == RewardMode::Adversary)
    sr.reward = -sr.surrogate;
  else if (mode_ == RewardMode::AdversaryRelaxed)
    sr.reward = -sr.reward;  // the original SA-RL's relaxed objective
  // VictimTrue keeps the inner reward untouched.
  return sr;
}

rl::StepResult StatePerturbationEnv::step(const std::vector<double>& action) {
  return finish_step(victim_.query(begin_step(action), ws_));
}

OpponentEnv::OpponentEnv(const env::MultiAgentEnv& game,
                         rl::PolicyHandle victim)
    : game_(game.clone()), victim_(std::move(victim)) {
  IMAP_CHECK(static_cast<bool>(victim_));
}

OpponentEnv::OpponentEnv(const OpponentEnv& other)
    : game_(other.game_->clone()),
      victim_(other.victim_),
      cur_obs_v_(other.cur_obs_v_) {}

std::vector<double> OpponentEnv::reset(Rng& rng) {
  auto [obs_v, obs_a] = game_->reset(rng);
  cur_obs_v_ = std::move(obs_v);
  return obs_a;
}

const std::vector<double>& OpponentEnv::begin_step(
    const std::vector<double>& action) {
  pending_act_a_ = game_->adversary_action_space().clamp(action);
  return cur_obs_v_;
}

rl::StepResult OpponentEnv::finish_step(
    const std::vector<double>& policy_out) {
  const auto act_v = game_->victim_action_space().clamp(policy_out);
  env::MaStepResult ma = game_->step(act_v, pending_act_a_);
  cur_obs_v_ = std::move(ma.obs_v);

  rl::StepResult sr;
  sr.obs = std::move(ma.obs_a);
  sr.done = ma.done;
  sr.truncated = ma.truncated;
  const bool over = ma.done || ma.truncated;
  sr.task_completed = over && ma.victim_won;
  sr.surrogate = sr.task_completed ? 1.0 : 0.0;
  sr.reward = over ? (ma.victim_won ? -1.0 : 0.0) : 0.0;
  sr.fell = false;
  return sr;
}

rl::StepResult OpponentEnv::step(const std::vector<double>& action) {
  return finish_step(victim_.query(begin_step(action), ws_));
}

rl::EvalStats evaluate_attack(const rl::Env& deploy_env,
                              rl::PolicyHandle victim,
                              const rl::PolicyHandle& adversary, double eps,
                              int episodes, Rng& rng) {
  StatePerturbationEnv env(deploy_env, std::move(victim), eps,
                           RewardMode::VictimTrue);
  return rl::evaluate(env, adversary, episodes, rng);
}

rl::EvalStats evaluate_opponent_attack(const env::MultiAgentEnv& game,
                                       rl::PolicyHandle victim,
                                       const rl::PolicyHandle& adversary,
                                       int episodes, Rng& rng) {
  OpponentEnv env(game, std::move(victim));
  return rl::evaluate(env, adversary, episodes, rng);
}

}  // namespace imap::attack
