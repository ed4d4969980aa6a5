#include "attack/threat_model.h"

#include "common/check.h"

namespace imap::attack {

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
  return rl::evaluate(StatePerturbationEnv(deploy_env, std::move(victim), eps,
                                           RewardMode::VictimTrue),
                      adversary, episodes, rng);
}

rl::EvalStats evaluate_opponent_attack(const env::MultiAgentEnv& game,
                                       rl::PolicyHandle victim,
                                       const rl::PolicyHandle& adversary,
                                       int episodes, Rng& rng) {
  return rl::evaluate(OpponentEnv(game, std::move(victim)), adversary,
                      episodes, rng);
}

}  // namespace imap::attack
