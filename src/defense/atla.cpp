#include "defense/atla.h"

#include <algorithm>

#include "attack/ppo_attacker.h"
#include "common/check.h"
#include "defense/sa_regularizer.h"
#include "nn/checkpoint.h"
#include "scenario/channels.h"
#include "scenario/scenario_env.h"

namespace imap::defense {

PerturbedVictimEnv::PerturbedVictimEnv(const rl::Env& inner,
                                       rl::PolicyHandle adversary, double eps)
    : inner_(inner.clone()), adversary_(std::move(adversary)), eps_(eps) {
  IMAP_CHECK(eps_ >= 0.0);
  IMAP_CHECK(static_cast<bool>(adversary_));
}

PerturbedVictimEnv::PerturbedVictimEnv(const rl::Env& inner, double eps)
    : inner_(inner.clone()), eps_(eps), noise_mode_(true) {
  IMAP_CHECK(eps_ >= 0.0);
}

PerturbedVictimEnv::PerturbedVictimEnv(const PerturbedVictimEnv& other)
    : inner_(other.inner_->clone()),
      adversary_(other.adversary_),
      eps_(other.eps_),
      noise_mode_(other.noise_mode_),
      noise_rng_(other.noise_rng_) {}

void PerturbedVictimEnv::perturb(std::vector<double>& obs) {
  if (noise_mode_) {
    // The scenario layer's obs_noise channel primitive: one U[-1,1] draw per
    // element in index order — bit-identical to the hand-rolled loop this
    // replaced, so existing robust-defense checkpoints stay valid.
    scenario::apply_obs_noise(obs, eps_, noise_rng_);
    return;
  }
  // The adversary reads the clean observation before any element changes.
  const auto a = adversary_.query(obs, ws_);
  IMAP_CHECK(a.size() == obs.size());
  for (std::size_t i = 0; i < obs.size(); ++i)
    obs[i] += eps_ * std::clamp(a[i], -1.0, 1.0);
}

std::vector<double> PerturbedVictimEnv::reset(Rng& rng) {
  // The noise stream is a pure function of the reset Rng, so a checkpointed
  // episode replays exactly from its captured pre-reset state.
  if (noise_mode_) noise_rng_ = Rng(rng.next_u64());
  std::vector<double> obs = inner_->reset(rng);
  perturb(obs);
  return obs;
}

rl::StepResult PerturbedVictimEnv::step(const std::vector<double>& action) {
  rl::StepResult sr = inner_->step(action);
  perturb(sr.obs);
  return sr;
}

AtlaTrainer::AtlaTrainer(const rl::Env& training_env, bool with_sa,
                         long long steps, double eps, double reg_coef,
                         rl::PpoOptions ppo, int rounds,
                         double adversary_fraction, Rng rng)
    : training_env_(training_env.clone()),
      with_sa_(with_sa),
      eps_(eps),
      ppo_(ppo),
      rounds_(rounds),
      rng_(rng),
      // Victim trainer persists across rounds; only its env changes.
      victim_(training_env, ppo, rng.split(1)) {
  IMAP_CHECK(rounds_ >= 1);
  IMAP_CHECK(adversary_fraction > 0.0 && adversary_fraction < 1.0);
  IMAP_CHECK(steps > 0);

  const long long victim_steps_total = static_cast<long long>(
      static_cast<double>(steps) * (1.0 - adversary_fraction));
  const long long adv_steps_total = steps - victim_steps_total;
  victim_per_round_ =
      std::max<long long>(ppo.steps_per_iter, victim_steps_total / rounds);
  adv_per_round_ =
      std::max<long long>(ppo.steps_per_iter, adv_steps_total / rounds);

  if (with_sa_) {
    hook_rng_ = std::make_shared<Rng>(rng.split(2));
    victim_.set_regularizer_hook(
        make_smoothness_hook(eps_, reg_coef, /*pgd_steps=*/1, hook_rng_));
  }
}

void AtlaTrainer::enter_round_env() {
  IMAP_CHECK(round_adversary_ != nullptr);
  PerturbedVictimEnv perturbed(
      *training_env_, rl::PolicyHandle::snapshot(*round_adversary_), eps_);
  victim_.set_env(perturbed);
}

std::vector<rl::IterStats> AtlaTrainer::run_round() {
  IMAP_CHECK_MSG(!done(), "ATLA training already complete");
  std::vector<rl::IterStats> stats;
  if (round_ == 0) {
    // Round 0 warm-up: the victim first learns the task unattacked.
    stats = victim_.train(victim_per_round_);
  } else {
    // (1) Train the RL adversary against the frozen victim snapshot.
    attack::PpoAttacker adversary(
        scenario::ScenarioEnv(
            *training_env_,
            scenario::state_perturbation(training_env_->name(), eps_),
            rl::PolicyHandle::snapshot(victim_.policy()),
            scenario::RewardMode::Adversary),
        ppo_, rng_.split(100 + static_cast<std::uint64_t>(round_)));
    adversary.train(adversary.trainer().steps_done() + adv_per_round_);
    round_adversary_ =
        std::make_unique<nn::GaussianPolicy>(adversary.trainer().policy());

    // (2) Continue victim training under that adversary's perturbations.
    enter_round_env();
    stats = victim_.train(victim_.steps_done() + victim_per_round_);
  }
  ++round_;
  return stats;
}

void AtlaTrainer::save_state(ArchiveWriter& a) const {
  auto& meta = a.section("atla/meta");
  meta.write_i64(rounds_);
  meta.write_i64(round_);
  meta.write_bool(with_sa_);
  meta.write_i64(victim_per_round_);
  meta.write_i64(adv_per_round_);
  if (round_adversary_) {
    auto& adv = a.section("atla/adversary");
    nn::write_policy(adv, *round_adversary_);
  }
  if (hook_rng_) {
    auto& hr = a.section("atla/hook_rng");
    hook_rng_->save_state(hr);
  }
  victim_.save_state(a);
}

void AtlaTrainer::load_state(const ArchiveReader& a) {
  auto meta = a.section("atla/meta");
  const long long rounds = meta.read_i64();
  const long long round = meta.read_i64();
  const bool with_sa = meta.read_bool();
  const long long vpr = meta.read_i64();
  const long long apr = meta.read_i64();
  IMAP_CHECK_MSG(rounds == rounds_ && with_sa == with_sa_ &&
                     vpr == victim_per_round_ && apr == adv_per_round_,
                 "ATLA checkpoint was written under a different schedule");
  IMAP_CHECK_MSG(round >= 0 && round <= rounds,
                 "corrupt ATLA checkpoint: bad round counter");
  round_ = static_cast<int>(round);

  if (a.has("atla/adversary")) {
    auto adv = a.section("atla/adversary");
    round_adversary_ =
        std::make_unique<nn::GaussianPolicy>(nn::read_policy(adv));
    // The victim's in-flight episodes were collected under this round's
    // perturbed env; install it before the replay-based restore below.
    enter_round_env();
  } else {
    round_adversary_.reset();
  }
  if (hook_rng_) {
    auto hr = a.section("atla/hook_rng");
    hook_rng_->load_state(hr);
  }
  victim_.load_state(a);
}

nn::GaussianPolicy train_victim_atla(const rl::Env& training_env,
                                     bool with_sa, long long steps,
                                     double eps, double reg_coef,
                                     rl::PpoOptions ppo, int rounds,
                                     double adversary_fraction, Rng rng) {
  AtlaTrainer trainer(training_env, with_sa, steps, eps, reg_coef, ppo,
                      rounds, adversary_fraction, rng);
  while (!trainer.done()) trainer.run_round();
  return trainer.policy();
}

}  // namespace imap::defense
