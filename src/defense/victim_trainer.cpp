#include "defense/victim_trainer.h"

#include "common/check.h"
#include "defense/atla.h"
#include "defense/radial.h"
#include "defense/sa_regularizer.h"
#include "defense/wocar.h"

namespace imap::defense {

std::string to_string(DefenseKind kind) {
  switch (kind) {
    case DefenseKind::Vanilla: return "PPO";
    case DefenseKind::ATLA: return "ATLA";
    case DefenseKind::SA: return "SA";
    case DefenseKind::ATLA_SA: return "ATLA-SA";
    case DefenseKind::RADIAL: return "RADIAL";
    case DefenseKind::WocaR: return "WocaR";
    case DefenseKind::Game: return "Game";
  }
  return "?";
}

DefenseKind defense_from_string(const std::string& name) {
  for (const auto kind : all_defenses())
    if (to_string(kind) == name) return kind;
  IMAP_CHECK_MSG(false, "unknown defense: " << name);
  return DefenseKind::Vanilla;  // unreachable
}

std::vector<DefenseKind> all_defenses() {
  return {DefenseKind::Vanilla, DefenseKind::ATLA,   DefenseKind::SA,
          DefenseKind::ATLA_SA, DefenseKind::RADIAL, DefenseKind::WocaR};
}

VictimTrainSession::VictimTrainSession(const rl::Env& training_env,
                                       DefenseKind kind, long long steps,
                                       DefenseOptions opts, Rng rng)
    : training_env_(training_env.clone()),
      kind_(kind),
      steps_(steps),
      opts_(opts),
      rng_(rng) {
  IMAP_CHECK(steps_ > 0);
  if (kind_ == DefenseKind::ATLA || kind_ == DefenseKind::ATLA_SA) {
    atla_ = std::make_unique<AtlaTrainer>(
        training_env, kind_ == DefenseKind::ATLA_SA, steps_, opts_.eps,
        opts_.reg_coef, opts_.ppo, opts_.atla_rounds,
        opts_.atla_adversary_fraction, rng);
  } else {
    // A game's trainer takes the session stream unsplit: that is the
    // stream every game checkpoint was trained from, so splitting it would
    // change every game victim.
    trainer_ = std::make_unique<rl::PpoTrainer>(
        training_env, opts_.ppo,
        kind_ == DefenseKind::Game ? rng : rng.split(1));
  }
}

bool VictimTrainSession::done() const {
  if (atla_) return atla_->done();
  return trainer_->steps_done() >= steps_;
}

void VictimTrainSession::advance() {
  IMAP_CHECK_MSG(!done(), "victim training already complete");
  if (atla_) {
    atla_->run_round();
    return;
  }
  // Robust-regularizer defenses warm-start on the plain task (the originals
  // anneal their robustness coefficient in the same spirit), then continue
  // with (a) the method's smoothness/adversarial-loss hook and (b) sampled
  // ε-ball observation noise in the rollouts — the standard training-time
  // surrogate for bounding the policy's action divergence under state
  // perturbations. Experiencing perturbation at speed is what lets the
  // victim retreat to the slower, robust gait.
  if (phase_ == 0 && kind_ != DefenseKind::Vanilla &&
      kind_ != DefenseKind::Game && trainer_->steps_done() >= steps_ / 2) {
    enter_perturbed_phase();
    phase_ = 1;
  }
  trainer_->iterate();
}

void VictimTrainSession::enter_perturbed_phase() {
  hook_rng_ = std::make_shared<Rng>(rng_.split(2));
  switch (kind_) {
    case DefenseKind::SA:
      trainer_->set_regularizer_hook(make_smoothness_hook(
          opts_.eps, opts_.reg_coef, /*pgd_steps=*/1, hook_rng_));
      break;
    case DefenseKind::RADIAL:
      trainer_->set_regularizer_hook(make_radial_hook(
          opts_.eps, opts_.reg_coef, /*corners=*/4, hook_rng_));
      break;
    case DefenseKind::WocaR:
      trainer_->set_regularizer_hook(
          make_wocar_hook(opts_.eps, opts_.reg_coef, hook_rng_));
      break;
    default:
      IMAP_CHECK_MSG(false,
                     to_string(kind_) << " has no perturbed training phase");
  }
  PerturbedVictimEnv noisy(*training_env_, opts_.eps);
  trainer_->set_env(noisy);
}

nn::GaussianPolicy VictimTrainSession::policy() const {
  return atla_ ? atla_->policy() : trainer_->policy();
}

void VictimTrainSession::save_state(ArchiveWriter& a) const {
  auto& meta = a.section("victim/meta");
  meta.write_string(to_string(kind_));
  meta.write_i64(steps_);
  meta.write_i64(phase_);
  if (atla_) {
    atla_->save_state(a);
    return;
  }
  if (hook_rng_) {
    auto& hr = a.section("victim/hook_rng");
    hook_rng_->save_state(hr);
  }
  trainer_->save_state(a);
}

void VictimTrainSession::load_state(const ArchiveReader& a) {
  auto meta = a.section("victim/meta");
  IMAP_CHECK_MSG(meta.read_string() == to_string(kind_),
                 "victim checkpoint was written for a different defense");
  IMAP_CHECK_MSG(meta.read_i64() == steps_,
                 "victim checkpoint was written for a different step budget");
  const long long phase = meta.read_i64();
  IMAP_CHECK_MSG(phase == 0 || phase == 1,
                 "corrupt victim checkpoint: bad phase counter");
  if (atla_) {
    atla_->load_state(a);
    return;
  }
  phase_ = static_cast<int>(phase);
  if (phase_ == 1) {
    // Reinstall the hook and the noisy env, then overwrite the hook's Rng
    // with the checkpointed stream (the hook holds the shared pointer).
    enter_perturbed_phase();
    auto hr = a.section("victim/hook_rng");
    hook_rng_->load_state(hr);
  }
  trainer_->load_state(a);
}

nn::GaussianPolicy train_victim(const rl::Env& training_env, DefenseKind kind,
                                long long steps, DefenseOptions opts,
                                Rng rng) {
  VictimTrainSession session(training_env, kind, steps, opts, rng);
  while (!session.done()) session.advance();
  return session.policy();
}

}  // namespace imap::defense
