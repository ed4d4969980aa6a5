#include "core/imap_trainer.h"

#include "common/check.h"
#include "common/stats.h"

namespace imap::core {

std::vector<double> estimate_initial_state(const rl::Env& env,
                                           const RegularizerOptions& opts,
                                           int n, Rng& rng) {
  auto clone = env.clone();
  std::vector<double> acc;
  for (int i = 0; i < n; ++i) {
    const auto obs = opts.victim_slice.project(clone->reset(rng));
    if (acc.empty()) acc.assign(obs.size(), 0.0);
    for (std::size_t c = 0; c < obs.size(); ++c) acc[c] += obs[c];
  }
  for (auto& x : acc) x /= n;
  return acc;
}

ImapOptions with_game_marginals(ImapOptions opts,
                                const env::MultiAgentEnv& game) {
  if (opts.reg.victim_slice.whole()) {
    const auto [vb, ve] = game.victim_obs_range();
    const auto [ab, ae] = game.adversary_obs_range();
    opts.reg.victim_slice = {vb, ve};
    opts.reg.adversary_slice = {ab, ae};
  }
  return opts;
}

ImapTrainer::ImapTrainer(const rl::Env& attack_env, ImapOptions opts, Rng rng)
    : opts_(std::move(opts)), br_(opts_.bias_reduction, opts_.eta, opts_.tau0) {
  IMAP_CHECK(opts_.surrogate_scale > 0.0);
  if (opts_.reg.type == RegularizerType::R && opts_.reg.risk_target.empty()) {
    Rng init_rng = rng.split(0x5eedULL);
    opts_.reg.risk_target =
        estimate_initial_state(attack_env, opts_.reg, 16, init_rng);
  }
  reg_ = make_regularizer(opts_.reg, attack_env.obs_dim(),
                          attack_env.act_dim(), rng.split(0x4e67ULL));
  trainer_ =
      std::make_unique<rl::PpoTrainer>(attack_env, opts_.ppo, rng.split(1));

  // Algorithm 1's optimizing stage: bonuses from the chosen regularizer,
  // then the BR temperature for this iteration.
  trainer_->set_intrinsic_hook([this](rl::RolloutBuffer& buf) {
    reg_->compute(buf, trainer_->policy());
    if (!buf.episode_surrogate.empty()) {
      const double j_ap =
          -mean(buf.episode_surrogate) / opts_.surrogate_scale;
      br_.observe(j_ap);
    }
    return br_.tau();
  });
}

rl::PolicyHandle ImapTrainer::adversary() const {
  return rl::PolicyHandle::snapshot(trainer_->policy());
}

void ImapTrainer::save_state(ArchiveWriter& a) const {
  trainer_->save_state(a);
  auto& br = a.section("imap/br");
  br_.save_state(br);
  auto& reg = a.section("imap/reg");
  reg.write_string(reg_->name());
  reg_->save_state(reg);
}

void ImapTrainer::load_state(const ArchiveReader& a) {
  trainer_->load_state(a);
  auto br = a.section("imap/br");
  br_.load_state(br);
  auto reg = a.section("imap/reg");
  IMAP_CHECK_MSG(reg.read_string() == reg_->name(),
                 "IMAP checkpoint was written with a different regularizer");
  reg_->load_state(reg);
}

}  // namespace imap::core
