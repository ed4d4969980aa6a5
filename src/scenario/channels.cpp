#include "scenario/channels.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace imap::scenario {

void apply_obs_perturb(std::vector<double>& obs, const double* ctrl,
                       double eps) {
  for (std::size_t i = 0; i < obs.size(); ++i) obs[i] += eps * ctrl[i];
}

void apply_obs_noise(std::vector<double>& obs, double eps, Rng& rng) {
  for (auto& x : obs) x += eps * rng.uniform(-1.0, 1.0);
}

ChannelPipeline::ChannelPipeline(const ScenarioSpec& spec,
                                 std::size_t obs_dim,
                                 std::size_t victim_act_dim)
    : obs_dim_(obs_dim), act_dim_(victim_act_dim) {
  for (const auto& c : spec.channels) {
    switch (c.kind) {
      case ChannelKind::ObsPerturb: obs_eps_ = c.param; break;
      case ChannelKind::ActPerturb: act_eps_ = c.param; break;
      case ChannelKind::ObsDelay: delay_ = static_cast<int>(c.param); break;
      case ChannelKind::ObsDropout: dropout_p_ = c.param; break;
      case ChannelKind::ObsNoise: noise_eps_ = c.param; break;
      case ChannelKind::Budget: budget_total_ = c.param; break;
    }
  }
  ctrl_dim_ = (has_obs_perturb() ? obs_dim_ : 0) +
              (has_act_perturb() ? act_dim_ : 0);
  if (delay_ > 0)
    delay_ring_.assign(static_cast<std::size_t>(delay_) + 1,
                       std::vector<double>(obs_dim_, 0.0));
  budget_remaining_ = has_budget()
                          ? budget_total_
                          : std::numeric_limits<double>::infinity();
}

void ChannelPipeline::begin_episode(Rng& rng, double budget_scale) {
  // One reseed draw per stochastic channel PRESENT, in pipeline order, so a
  // scenario without stochastic channels consumes no extra slot-Rng draws
  // (an `env+obs_perturb:eps` reset draws only the inner env's own).
  if (dropout_p_ >= 0.0) dropout_rng_ = Rng(rng.next_u64());
  if (noise_eps_ >= 0.0) noise_rng_ = Rng(rng.next_u64());
  ring_head_ = 0;
  ring_count_ = 0;
  hold_.clear();
  budget_remaining_ = has_budget()
                          ? budget_total_ * budget_scale
                          : std::numeric_limits<double>::infinity();
  episode_open_ = true;
}

void ChannelPipeline::corrupt_obs(std::vector<double>& obs) {
  IMAP_CHECK_MSG(episode_open_, "ChannelPipeline: corrupt_obs before reset");
  if (delay_ > 0) {
    // Bank the fresh observation, deliver the one from `delay_` steps ago
    // (the reset observation while the ring is still filling).
    delay_ring_[ring_head_] = obs;
    ring_head_ = (ring_head_ + 1) % delay_ring_.size();
    ++ring_count_;
    if (ring_count_ > static_cast<std::size_t>(delay_))
      obs = delay_ring_[ring_head_];  // oldest banked = t - delay_
    else
      obs = delay_ring_[0];  // not enough history yet: the reset obs
  }
  if (dropout_p_ >= 0.0) {
    if (hold_.empty()) {
      hold_ = obs;  // the reset observation is always delivered intact
    } else {
      for (std::size_t i = 0; i < obs.size(); ++i)
        if (dropout_rng_.bernoulli(dropout_p_)) obs[i] = hold_[i];
      hold_ = obs;
    }
  }
  if (noise_eps_ >= 0.0) apply_obs_noise(obs, noise_eps_, noise_rng_);
}

double ChannelPipeline::charge(double eps, const double* ctrl,
                               std::size_t n) {
  if (!has_budget()) return eps;
  const double eps_eff = std::min(eps, std::max(0.0, budget_remaining_));
  double linf = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    linf = std::max(linf, std::abs(eps_eff * ctrl[i]));
  budget_remaining_ -= linf;
  return eps_eff;
}

void ChannelPipeline::perturb_obs(std::vector<double>& obs,
                                  const std::vector<double>& ctrl) {
  if (!has_obs_perturb()) return;
  IMAP_CHECK(ctrl.size() >= obs_dim_ && obs.size() == obs_dim_);
  const double eps = charge(obs_eps_, ctrl.data(), obs_dim_);
  apply_obs_perturb(obs, ctrl.data(), eps);
}

void ChannelPipeline::perturb_act(std::vector<double>& act,
                                  const std::vector<double>& ctrl) {
  if (!has_act_perturb()) return;
  const std::size_t off = has_obs_perturb() ? obs_dim_ : 0;
  IMAP_CHECK(ctrl.size() >= off + act_dim_ && act.size() == act_dim_);
  const double eps = charge(act_eps_, ctrl.data() + off, act_dim_);
  for (std::size_t i = 0; i < act_dim_; ++i)
    act[i] += eps * ctrl[off + i];
}

}  // namespace imap::scenario
