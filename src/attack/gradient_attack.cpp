#include "attack/gradient_attack.h"

#include <cmath>

#include "common/check.h"

namespace imap::attack {

namespace {

/// Shared PGD core: ascend ‖μ(s+δ) − μ(s)‖² over the ε-ball, return δ/ε
/// (the normalised direction the threat-model wrapper expects).
std::vector<double> mad_direction(const nn::Mlp& net,
                                  const std::vector<double>& s, double eps,
                                  int pgd_steps) {
  // One-row batches through a local workspace: the same kernels as the
  // batched training path, and the loop reuses their buffers across steps.
  nn::Batch adv(1, s.size());
  nn::Mlp::Workspace ws;
  adv.set_row(0, s);
  const nn::Batch& clean = net.forward_batch(adv, ws);
  const std::vector<double> mu_clean(clean.row(0),
                                     clean.row(0) + net.out_dim());
  // Deterministic non-zero start: at δ = 0 the objective's gradient
  // vanishes identically, so seed with a small alternating pattern.
  std::vector<double> delta(s.size());
  for (std::size_t i = 0; i < delta.size(); ++i)
    delta[i] = (i % 2 ? 0.1 : -0.1) * eps;
  nn::Batch grad_out(1, mu_clean.size());
  for (int step = 0; step < pgd_steps; ++step) {
    for (std::size_t i = 0; i < s.size(); ++i) adv(0, i) = s[i] + delta[i];
    const double* mu = net.forward_batch(adv, ws).row(0);
    for (std::size_t i = 0; i < mu_clean.size(); ++i)
      grad_out(0, i) = 2.0 * (mu[i] - mu_clean[i]);
    const double* g = net.input_gradient_batch(ws, grad_out).row(0);
    // FGSM step: jump to the sign corner (for the 1-step case this is the
    // standard FGSM; further steps can flip coordinates whose gradient sign
    // changed at the corner).
    for (std::size_t i = 0; i < delta.size(); ++i)
      delta[i] = (g[i] >= 0.0 ? eps : -eps);
  }
  for (auto& d : delta) d /= eps;  // direction in [−1, 1]^d
  return delta;
}

}  // namespace

rl::ActionFn make_mad_attack(const nn::GaussianPolicy& victim, double eps,
                             int pgd_steps) {
  IMAP_CHECK(eps > 0.0);
  IMAP_CHECK(pgd_steps >= 1);
  auto snapshot = std::make_shared<nn::GaussianPolicy>(victim);
  return [snapshot, eps, pgd_steps](const std::vector<double>& obs) {
    return mad_direction(snapshot->net(), obs, eps, pgd_steps);
  };
}

rl::ActionFn make_fgsm_attack(const nn::GaussianPolicy& victim, double eps) {
  return make_mad_attack(victim, eps, /*pgd_steps=*/1);
}

}  // namespace imap::attack
