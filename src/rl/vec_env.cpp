#include "rl/vec_env.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/check.h"

namespace imap::rl {

void VecEnv::configure(const Env& proto, const std::vector<Rng>& streams) {
  slots_.clear();
  slots_.reserve(streams.size());
  for (const Rng& stream : streams) {
    EnvSlot s;
    s.env = proto.clone();
    s.rng = stream;
    slots_.push_back(std::move(s));
  }
  refresh_split_cache();
}

void VecEnv::set_env(const Env& proto) {
  for (auto& s : slots_) {
    IMAP_CHECK(proto.obs_dim() == s.env->obs_dim());
    IMAP_CHECK(proto.act_dim() == s.env->act_dim());
    s.env = proto.clone();
    s.need_reset = true;
    s.replay.invalidate();
  }
  refresh_split_cache();
}

void VecEnv::refresh_split_cache() {
  victim_batchable_ = !slots_.empty();
  const nn::GaussianPolicy* net = nullptr;
  for (auto& s : slots_) {
    s.split = dynamic_cast<SplitStepEnv*>(s.env.get());
    if (s.split == nullptr || !s.split->frozen_policy().batched()) {
      victim_batchable_ = false;
      continue;
    }
    if (net == nullptr) net = s.split->frozen_policy().net();
    if (s.split->frozen_policy().net() != net) victim_batchable_ = false;
  }
}

void VecEnv::begin_round(EnvSlot& s, int budget) {
  s.buf.clear();
  s.buf.reserve(static_cast<std::size_t>(std::max(budget, 0)));
  s.buf.reserve_step(s.env->obs_dim(), s.env->act_dim());
  s.boot_i_at.clear();
  s.boot_i_obs.clear();
  s.ep_successes = 0;
  if (budget > 0 && s.need_reset) {
    s.replay.on_reset(s.rng);
    s.cur_obs = s.env->reset(s.rng);
    s.ep_return = s.ep_surrogate = 0.0;
    s.ep_len = 0;
    s.need_reset = false;
  }
}

void VecEnv::record_step(EnvSlot& s, const double* act, std::size_t na,
                         double lp, double ve, StepResult&& sr,
                         const nn::ValueNet& value_e) {
  s.replay.on_step(act, na);
  s.buf.add(s.cur_obs.data(), s.cur_obs.size(), act, na, lp, sr.reward, ve);
  s.ep_return += sr.reward;
  s.ep_surrogate += sr.surrogate;
  ++s.ep_len;

  if (sr.done || sr.truncated) {
    s.buf.done.back() = sr.done ? 1 : 0;
    s.buf.boundary.back() = 1;
    // Bootstrap with the value of the post-step state (ignored if done).
    s.buf.last_val_e.push_back(
        sr.done ? 0.0 : bootstrap(value_e, ws_value_e_, sr.obs));
    if (sr.done)
      s.buf.last_val_i.push_back(0.0);
    else
      owe_intrinsic(s, sr.obs);
    s.buf.episode_returns.push_back(s.ep_return);
    s.buf.episode_surrogate.push_back(s.ep_surrogate);
    s.buf.episode_lengths.push_back(s.ep_len);
    if (sr.task_completed) ++s.ep_successes;
    // In-place auto-reset: the slot's next tick starts the next episode,
    // drawn from the slot's own stream (the lockstep never stalls).
    s.replay.on_reset(s.rng);
    s.cur_obs = s.env->reset(s.rng);
    s.ep_return = s.ep_surrogate = 0.0;
    s.ep_len = 0;
  } else {
    // Swap instead of copy: sr is dead after this call.
    std::swap(s.cur_obs, sr.obs);
  }
}

void VecEnv::close_round(EnvSlot& s, const nn::ValueNet& value_e) {
  if (s.buf.size() == 0) return;
  // Close the rollout: the last segment bootstraps from the current state.
  if (!s.buf.boundary.back()) {
    s.buf.boundary.back() = 1;
    s.buf.last_val_e.push_back(bootstrap(value_e, ws_value_e_, s.cur_obs));
    owe_intrinsic(s, s.cur_obs);
  }
}

void VecEnv::owe_intrinsic(EnvSlot& s, const std::vector<double>& obs) {
  s.boot_i_at.push_back(s.buf.last_val_i.size());
  s.buf.last_val_i.push_back(0.0);
  s.boot_i_obs.insert(s.boot_i_obs.end(), obs.begin(), obs.end());
}

void VecEnv::bootstrap_intrinsic(const nn::ValueNet& value_i) {
  std::size_t rows = 0;
  for (const auto& s : slots_) rows += s.boot_i_at.size();
  if (rows == 0) return;
  boot_b_.resize(rows, slots_[0].env->obs_dim());
  double* dst = boot_b_.data();
  for (const auto& s : slots_)
    dst = std::copy(s.boot_i_obs.begin(), s.boot_i_obs.end(), dst);
  value_i.value_batch(boot_b_, ws_value_i_, boot_v_);
  std::size_t r = 0;
  for (auto& s : slots_) {
    for (const std::size_t at : s.boot_i_at) s.buf.last_val_i[at] = boot_v_[r++];
    s.boot_i_at.clear();
    s.boot_i_obs.clear();
  }
}

double VecEnv::bootstrap(const nn::ValueNet& value, nn::Mlp::Workspace& ws,
                         const std::vector<double>& obs) {
  boot_b_.resize(1, obs.size());
  boot_b_.set_row(0, obs);
  value.value_batch(boot_b_, ws, boot_v_);
  return boot_v_[0];
}

void VecEnv::collect(const nn::GaussianPolicy& policy,
                     const nn::ValueNet& value_e,
                     const std::vector<int>& budgets, std::size_t offset) {
  if (slots_.empty()) return;
  int max_budget = 0;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    // Non-increasing budgets keep the live slots a prefix of the range, so
    // row r of every per-tick batch is always slot r.
    IMAP_CHECK(i == 0 || budgets[offset + i] <= budgets[offset + i - 1]);
    begin_round(slots_[i], budgets[offset + i]);
    max_budget = std::max(max_budget, budgets[offset + i]);
  }

  const std::size_t odim = slots_[0].env->obs_dim();
  const std::size_t adim = slots_[0].env->act_dim();
  const std::vector<double>& log_std = policy.log_std();
  nn::diag_gaussian::scales(log_std, 1.0, std_);
  nn::diag_gaussian::scales(log_std, -1.0, inv_std_);

  for (int t = 0; t < max_budget; ++t) {
    std::size_t live = 0;
    while (live < slots_.size() && budgets[offset + live] > t) ++live;

    obs_b_.resize(live, odim);
    for (std::size_t r = 0; r < live; ++r)
      obs_b_.set_row(r, slots_[r].cur_obs);

    // One batched mean and one batched value answer the whole tick; each
    // row is bit-identical to a one-row batch of that slot alone.
    const nn::Batch& mu = policy.mean_batch(obs_b_, ws_policy_);
    value_e.value_batch(obs_b_, ws_value_e_, vals_);

    act_b_.resize(live, adim);
    logp_.resize(live);
    for (std::size_t r = 0; r < live; ++r) {
      EnvSlot& s = slots_[r];
      const double* m = mu.row(r);
      double* a = act_b_.row(r);
      // Sample around the batched mean from the slot's own stream, then
      // score the sample against that same mean.
      for (std::size_t d = 0; d < adim; ++d)
        a[d] = m[d] + std_[d] * s.rng.normal();
      logp_[r] = nn::diag_gaussian::log_prob(a, m, log_std.data(),
                                             inv_std_.data(), adim);
    }

    if (victim_batchable_) {
      // Phase 1 on every slot, ONE batched victim forward, then phase 2 —
      // the begin/finish split is bit-equal to each slot's own step().
      query_b_.resize(live, slots_[0].split->query_dim());
      for (std::size_t r = 0; r < live; ++r) {
        EnvSlot& s = slots_[r];
        action_.assign(act_b_.row(r), act_b_.row(r) + adim);
        query_b_.set_row(
            r, s.split->begin_step(s.env->action_space().clamp(action_)));
      }
      const nn::Batch& vout =
          slots_[0].split->frozen_policy().query_batch(query_b_, ws_victim_);
      for (std::size_t r = 0; r < live; ++r) {
        EnvSlot& s = slots_[r];
        victim_out_.assign(vout.row(r), vout.row(r) + vout.dim());
        record_step(s, act_b_.row(r), adim, logp_[r], vals_[r],
                    s.split->finish_step(victim_out_), value_e);
      }
    } else {
      for (std::size_t r = 0; r < live; ++r) {
        EnvSlot& s = slots_[r];
        action_.assign(act_b_.row(r), act_b_.row(r) + adim);
        record_step(s, act_b_.row(r), adim, logp_[r], vals_[r],
                    s.env->step(s.env->action_space().clamp(action_)),
                    value_e);
      }
    }
  }

  for (auto& s : slots_) close_round(s, value_e);
}

namespace {
bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}
}  // namespace

void VecEnv::save_state(BinaryWriter& w) const {
  w.write_u64(slots_.size());
  for (const auto& s : slots_) {
    s.rng.save_state(w);
    w.write_bool(s.need_reset);
    w.write_vec(s.cur_obs);
    w.write_f64(s.ep_return);
    w.write_f64(s.ep_surrogate);
    w.write_i64(s.ep_len);
    s.replay.save_state(w);
  }
}

void VecEnv::load_state(BinaryReader& r) {
  IMAP_CHECK_MSG(r.read_u64() == slots_.size(),
                 "checkpoint has wrong rollout-slot count");
  std::vector<double> replayed;  // reused across slots
  for (auto& s : slots_) {
    s.rng.load_state(r);
    s.need_reset = r.read_bool();
    s.cur_obs = r.read_vec();
    s.ep_return = r.read_f64();
    s.ep_surrogate = r.read_f64();
    s.ep_len = static_cast<int>(r.read_i64());
    s.replay.load_state(r);
    if (!s.need_reset && s.replay.valid()) {
      // Reconstruct the slot env mid-episode by replaying its history into
      // the fresh clone; the replayed observation must match the saved one
      // exactly or the prototype does not match the checkpoint.
      replayed = s.replay.rebuild(*s.env);
      IMAP_CHECK_MSG(same_bits(replayed, s.cur_obs),
                     "episode replay diverged from checkpoint — environment "
                     "prototype does not match");
    }
  }
}

}  // namespace imap::rl
