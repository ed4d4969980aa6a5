#include "rl/rollout.h"

namespace imap::rl {

void RolloutBuffer::clear() {
  // obs/act keep their rows (and row capacity); n_ marks the valid prefix.
  n_ = 0;
  logp.clear();
  rew_e.clear();
  rew_i.clear();
  val_e.clear();
  val_i.clear();
  done.clear();
  boundary.clear();
  last_val_e.clear();
  last_val_i.clear();
  boundary_at.clear();
  episode_returns.clear();
  episode_surrogate.clear();
  episode_lengths.clear();
}

void RolloutBuffer::reserve(std::size_t n) {
  obs.reserve(n);
  act.reserve(n);
  logp.reserve(n);
  rew_e.reserve(n);
  rew_i.reserve(n);
  val_e.reserve(n);
  val_i.reserve(n);
  done.reserve(n);
  boundary.reserve(n);
}

void RolloutBuffer::reserve_step(std::size_t dim_obs, std::size_t dim_act) {
  dim_obs_ = dim_obs;
  dim_act_ = dim_act;
}

void RolloutBuffer::add(const std::vector<double>& o,
                        const std::vector<double>& a, double lp, double re,
                        double ve) {
  add(o.data(), o.size(), a.data(), a.size(), lp, re, ve);
}

void RolloutBuffer::add(const double* o, std::size_t no, const double* a,
                        std::size_t na, double lp, double re, double ve) {
  if (n_ == obs.size()) {
    obs.emplace_back();
    if (dim_obs_) obs.back().reserve(dim_obs_);
  }
  if (n_ == act.size()) {
    act.emplace_back();
    if (dim_act_) act.back().reserve(dim_act_);
  }
  obs[n_].assign(o, o + no);
  act[n_].assign(a, a + na);
  ++n_;
  logp.push_back(lp);
  rew_e.push_back(re);
  rew_i.push_back(0.0);
  val_e.push_back(ve);
  val_i.push_back(0.0);
  done.push_back(0);
  boundary.push_back(0);
}

void RolloutBuffer::append(const RolloutBuffer& other) {
  // Reserve the destination once per source: merging K·E slot buffers then
  // proceeds without a single mid-append reallocation.
  reserve(n_ + other.size());
  last_val_e.reserve(last_val_e.size() + other.last_val_e.size());
  last_val_i.reserve(last_val_i.size() + other.last_val_i.size());
  episode_returns.reserve(episode_returns.size() +
                          other.episode_returns.size());
  episode_surrogate.reserve(episode_surrogate.size() +
                            other.episode_surrogate.size());
  episode_lengths.reserve(episode_lengths.size() +
                          other.episode_lengths.size());
  for (std::size_t i = 0; i < other.size(); ++i) {
    add(other.obs[i], other.act[i], other.logp[i], other.rew_e[i],
        other.val_e[i]);
    rew_i.back() = other.rew_i[i];
    val_i.back() = other.val_i[i];
    done.back() = other.done[i];
    boundary.back() = other.boundary[i];
  }
  last_val_e.insert(last_val_e.end(), other.last_val_e.begin(),
                    other.last_val_e.end());
  last_val_i.insert(last_val_i.end(), other.last_val_i.begin(),
                    other.last_val_i.end());
  episode_returns.insert(episode_returns.end(), other.episode_returns.begin(),
                         other.episode_returns.end());
  episode_surrogate.insert(episode_surrogate.end(),
                           other.episode_surrogate.begin(),
                           other.episode_surrogate.end());
  episode_lengths.insert(episode_lengths.end(), other.episode_lengths.begin(),
                         other.episode_lengths.end());
}

}  // namespace imap::rl
