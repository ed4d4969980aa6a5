#include "nn/gaussian.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace imap::nn {

namespace diag_gaussian {

namespace {
constexpr double kLog2Pi = 1.8378770664093453;  // ln(2π)
}

void scales(const std::vector<double>& log_std, double k,
            std::vector<double>& out) {
  out.resize(log_std.size());
  for (std::size_t i = 0; i < log_std.size(); ++i)
    out[i] = std::exp(k * log_std[i]);
}

double log_prob(const double* a, const double* mean, const double* log_std,
                const double* inv_std, std::size_t n) {
  double lp = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double z = (a[i] - mean[i]) * inv_std[i];
    lp += -0.5 * z * z - log_std[i] - 0.5 * kLog2Pi;
  }
  IMAP_NCHECK_FINITE(lp, "diag_gaussian.log_prob");
  return lp;
}

double entropy(const std::vector<double>& log_std) {
  double h = 0.0;
  for (double ls : log_std) h += ls + 0.5 * (kLog2Pi + 1.0);
  return h;
}

double kl(const double* mean_p, const double* ls_p, const double* mean_q,
          const double* ls_q, std::size_t n) {
  double kl = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double var_p = std::exp(2.0 * ls_p[i]);
    const double var_q = std::exp(2.0 * ls_q[i]);
    const double dm = mean_p[i] - mean_q[i];
    kl += ls_q[i] - ls_p[i] + (var_p + dm * dm) / (2.0 * var_q) - 0.5;
  }
  return kl;
}

}  // namespace diag_gaussian

GaussianPolicy::GaussianPolicy(std::size_t obs_dim, std::size_t act_dim,
                               std::vector<std::size_t> hidden, Rng& rng,
                               double init_log_std)
    : net_([&] {
        std::vector<std::size_t> sizes{obs_dim};
        sizes.insert(sizes.end(), hidden.begin(), hidden.end());
        sizes.push_back(act_dim);
        return Mlp(std::move(sizes), rng);
      }()),
      log_std_(act_dim, init_log_std),
      log_std_grad_(act_dim, 0.0) {}

double GaussianPolicy::entropy() const {
  return diag_gaussian::entropy(log_std_);
}

const Batch& GaussianPolicy::mean_batch(const Batch& obs) {
  return net_.forward_batch(obs);
}

const Batch& GaussianPolicy::mean_batch(const Batch& obs,
                                        Mlp::Workspace& ws) const {
  return net_.forward_batch(obs, ws);
}

void GaussianPolicy::log_prob_batch(const Batch& obs, const Batch& act,
                                    std::vector<double>& out) {
  IMAP_CHECK(act.rows() == obs.rows() && act.dim() == act_dim());
  const Batch& mean = mean_batch(obs);
  diag_gaussian::scales(log_std_, -1.0, inv_std_);
  out.resize(obs.rows());
  for (std::size_t n = 0; n < obs.rows(); ++n)
    out[n] = diag_gaussian::log_prob(act.row(n), mean.row(n), log_std_.data(),
                                     inv_std_.data(), act_dim());
}

void GaussianPolicy::backward_logp_batch(const Batch& act,
                                         const std::vector<double>& coeff) {
  auto& ws = net_.workspace();
  IMAP_CHECK_MSG(!ws.post.empty(),
                 "backward_logp_batch without a prior mean_batch");
  const Batch& mean = ws.post.back();
  const std::size_t b = act.rows();
  IMAP_CHECK(coeff.size() == b && act.dim() == act_dim() && mean.rows() == b);
  dmean_.resize(b, act_dim());
  diag_gaussian::scales(log_std_, -2.0, inv_var_);
  diag_gaussian::scales(log_std_, -1.0, inv_std_);
  for (std::size_t n = 0; n < b; ++n) {
    const double* a = act.row(n);
    const double* m = mean.row(n);
    double* g = dmean_.row(n);
    const double cn = coeff[n];
    for (std::size_t i = 0; i < log_std_.size(); ++i) {
      // Two-step (dlogp, then ·coeff): the golden digests pin this rounding.
      double v = (a[i] - m[i]) * inv_var_[i];
      v *= cn;
      g[i] = v;
    }
  }
  net_.backward_batch(dmean_);
  for (std::size_t n = 0; n < b; ++n) {
    const double* a = act.row(n);
    const double* m = mean.row(n);
    const double cn = coeff[n];
    for (std::size_t i = 0; i < log_std_grad_.size(); ++i) {
      const double z = (a[i] - m[i]) * inv_std_[i];
      log_std_grad_[i] += cn * (z * z - 1.0);
    }
  }
}

void GaussianPolicy::backward_entropy(double coeff) {
  // dH/d log_std_i = 1.
  for (double& g : log_std_grad_) g += coeff;
}

std::vector<double> GaussianPolicy::flat_params() const {
  std::vector<double> p = net_.params();
  p.insert(p.end(), log_std_.begin(), log_std_.end());
  return p;
}

void GaussianPolicy::set_flat_params(const std::vector<double>& p) {
  IMAP_CHECK(p.size() == n_params());
  std::copy(p.begin(), p.begin() + static_cast<std::ptrdiff_t>(net_.params().size()),
            net_.params().begin());
  std::copy(p.end() - static_cast<std::ptrdiff_t>(log_std_.size()), p.end(),
            log_std_.begin());
}

std::vector<double> GaussianPolicy::flat_grads() const {
  std::vector<double> g = net_.grads();
  g.insert(g.end(), log_std_grad_.begin(), log_std_grad_.end());
  return g;
}

void GaussianPolicy::flat_params_into(std::vector<double>& out) const {
  out.resize(n_params());
  std::copy(net_.params().begin(), net_.params().end(), out.begin());
  std::copy(log_std_.begin(), log_std_.end(),
            out.begin() + static_cast<std::ptrdiff_t>(net_.params().size()));
}

void GaussianPolicy::flat_grads_into(std::vector<double>& out) const {
  out.resize(n_params());
  std::copy(net_.grads().begin(), net_.grads().end(), out.begin());
  std::copy(log_std_grad_.begin(), log_std_grad_.end(),
            out.begin() + static_cast<std::ptrdiff_t>(net_.grads().size()));
}

void GaussianPolicy::zero_grad() {
  net_.zero_grad();
  std::fill(log_std_grad_.begin(), log_std_grad_.end(), 0.0);
}

void GaussianPolicy::clamp_log_std(double lo, double hi) {
  for (double& ls : log_std_) ls = std::clamp(ls, lo, hi);
}

ValueNet::ValueNet(std::size_t obs_dim, std::vector<std::size_t> hidden,
                   Rng& rng)
    : net_([&] {
        std::vector<std::size_t> sizes{obs_dim};
        sizes.insert(sizes.end(), hidden.begin(), hidden.end());
        sizes.push_back(1);
        return Mlp(std::move(sizes), rng);
      }()) {}

void ValueNet::value_batch(const Batch& obs, std::vector<double>& out) {
  const Batch& o = net_.forward_batch(obs);
  out.resize(obs.rows());
  for (std::size_t n = 0; n < obs.rows(); ++n) out[n] = o.row(n)[0];
}

void ValueNet::value_batch(const Batch& obs, Mlp::Workspace& ws,
                           std::vector<double>& out) const {
  const Batch& o = net_.forward_batch(obs, ws);
  out.resize(obs.rows());
  for (std::size_t n = 0; n < obs.rows(); ++n) out[n] = o.row(n)[0];
}

void ValueNet::backward_batch(const std::vector<double>& coeff) {
  dout_.resize(coeff.size(), 1);
  for (std::size_t n = 0; n < coeff.size(); ++n) dout_(n, 0) = coeff[n];
  net_.backward_batch(dout_);
}

void GaussianPolicy::save_state(BinaryWriter& w) const {
  net_.save_state(w);
  w.write_vec(log_std_);
}

void GaussianPolicy::load_state(BinaryReader& r) {
  net_.load_state(r);
  auto ls = r.read_vec();
  IMAP_CHECK_MSG(ls.size() == log_std_.size(),
                 "policy checkpoint has wrong log_std size");
  log_std_ = std::move(ls);
}

void ValueNet::save_state(BinaryWriter& w) const { net_.save_state(w); }

void ValueNet::load_state(BinaryReader& r) { net_.load_state(r); }

}  // namespace imap::nn
