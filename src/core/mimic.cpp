#include "core/mimic.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"

namespace imap::core {

MimicPolicy::MimicPolicy(std::size_t obs_dim, std::size_t act_dim,
                         std::vector<std::size_t> hidden, Rng rng, double lr)
    : mimic_(obs_dim, act_dim, std::move(hidden), rng),
      opt_(mimic_.n_params(), {.lr = lr, .max_grad_norm = 1.0}),
      rng_(rng.split(0x6d696d6963ULL)) {}

void MimicPolicy::update(const rl::RolloutBuffer& buf, int epochs,
                         int minibatch) {
  const std::size_t n = buf.size();
  if (n == 0) return;
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);

  nn::Batch obs, act;
  std::vector<double> coeff;
  for (int e = 0; e < epochs; ++e) {
    for (std::size_t i = n; i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<int>(i) - 1));
      std::swap(order[i - 1], order[j]);
    }
    for (std::size_t start = 0; start < n;
         start += static_cast<std::size_t>(minibatch)) {
      const std::size_t end =
          std::min(n, start + static_cast<std::size_t>(minibatch));
      const double inv_bs = 1.0 / static_cast<double>(end - start);
      obs.gather(buf.obs, order, start, end);
      act.gather(buf.act, order, start, end);
      // NLL minimisation: accumulate −∇ log π_m(a|s) / bs over the batch.
      coeff.assign(end - start, -inv_bs);
      mimic_.zero_grad();
      mimic_.mean_batch(obs);
      mimic_.backward_logp_batch(act, coeff);
      auto p = mimic_.flat_params();
      opt_.step(p, mimic_.flat_grads());
      mimic_.set_flat_params(p);
      mimic_.clamp_log_std();
    }
  }
}

void MimicPolicy::kl_from(const nn::GaussianPolicy& policy,
                          const nn::Batch& obs, std::vector<double>& out) {
  IMAP_CHECK(obs.dim() == mimic_.obs_dim());
  IMAP_CHECK(policy.act_dim() == mimic_.act_dim());
  const nn::Batch& mu_p = policy.mean_batch(obs, ws_policy_);
  const nn::Batch& mu_m = mimic_.mean_batch(obs);  // the mimic's own arena
  out.resize(obs.rows());
  for (std::size_t n = 0; n < obs.rows(); ++n)
    out[n] = nn::diag_gaussian::kl(mu_p.row(n), policy.log_std().data(),
                                   mu_m.row(n), mimic_.log_std().data(),
                                   mimic_.act_dim());
}

void MimicPolicy::save_state(BinaryWriter& w) const {
  mimic_.save_state(w);
  opt_.save_state(w);
  rng_.save_state(w);
}

void MimicPolicy::load_state(BinaryReader& r) {
  mimic_.load_state(r);
  opt_.load_state(r);
  rng_.load_state(r);
}

}  // namespace imap::core
