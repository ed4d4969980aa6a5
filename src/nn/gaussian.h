#pragma once

#include <vector>

#include "common/rng.h"
#include "nn/mlp.h"

namespace imap::nn {

/// Closed-form diagonal-Gaussian math shared by the policy classes.
namespace diag_gaussian {

/// out[i] = exp(k·log_std[i]): a per-dim factor (k = 1 the std, −1 its
/// inverse, −2 the inverse variance) that callers compute once per policy
/// state and reuse for every row, instead of once per row and dim.
void scales(const std::vector<double>& log_std, double k,
            std::vector<double>& out);

/// log N(a | mean, exp(log_std)²), summed over the n dims; inv_std[i] =
/// exp(−log_std[i]) (see scales).
double log_prob(const double* a, const double* mean, const double* log_std,
                const double* inv_std, std::size_t n);

/// Differential entropy, summed over dims (state-independent given log_std).
double entropy(const std::vector<double>& log_std);

/// KL(p ‖ q) between two n-dim diagonal Gaussians.
double kl(const double* mean_p, const double* ls_p, const double* mean_q,
          const double* ls_q, std::size_t n);

}  // namespace diag_gaussian

/// Stochastic policy π(a|s) = N(μ_θ(s), diag(exp(log_std))²) with a
/// state-independent trainable log-std — the standard continuous-control
/// parameterisation used by PPO (and by the paper).
class GaussianPolicy {
 public:
  GaussianPolicy(std::size_t obs_dim, std::size_t act_dim,
                 std::vector<std::size_t> hidden, Rng& rng,
                 double init_log_std = -0.5);

  std::size_t obs_dim() const { return net_.in_dim(); }
  std::size_t act_dim() const { return log_std_.size(); }

  /// Policy entropy (state-independent).
  double entropy() const;

  /// Batched mean forward on the policy-owned workspace, recording the
  /// batched tape for a later backward_logp_batch. Returns the mean rows
  /// (reference into the workspace, valid until the next batched call).
  const Batch& mean_batch(const Batch& obs);

  /// Inference-only batched mean forward through a caller-owned workspace —
  /// for read-only consumers (rollout collection, frozen-victim queries)
  /// that share one policy across worker threads. Each row is bit-identical
  /// to a one-row batch of that row.
  const Batch& mean_batch(const Batch& obs, Mlp::Workspace& ws) const;

  /// log π(a_n|s_n) for every row of a minibatch, written into `out`
  /// (resized to obs.rows()). Records the mean tape like mean_batch.
  void log_prob_batch(const Batch& obs, const Batch& act,
                      std::vector<double>& out);

  /// Accumulate Σ_n coeff[n]·∇_θ log π(a_n|s_n) into the gradients, over
  /// the tape recorded by the last mean_batch/log_prob_batch. Used by
  /// the PPO policy-gradient step (coeff = clipped advantage weight) and by
  /// behaviour cloning. Bit-identical to one 1-row call per row in
  /// ascending row order (coeff[n] = 0 rows contribute exact zeros).
  void backward_logp_batch(const Batch& act, const std::vector<double>& coeff);

  /// Accumulate coeff · ∇_θ H(π) (only log_std receives gradient).
  void backward_entropy(double coeff);

  /// Flat parameter/gradient access for the optimiser: mean-net parameters
  /// followed by log_std.
  std::size_t n_params() const { return net_.params().size() + log_std_.size(); }
  std::vector<double> flat_params() const;
  void set_flat_params(const std::vector<double>& p);
  std::vector<double> flat_grads() const;
  /// Allocation-free variants for hot loops: write into a caller-owned
  /// buffer (resized on first use, reused afterwards).
  void flat_params_into(std::vector<double>& out) const;
  void flat_grads_into(std::vector<double>& out) const;
  void zero_grad();

  /// Keep the exploration noise in a sane range after optimiser steps.
  void clamp_log_std(double lo = -3.0, double hi = 1.0);

  const std::vector<double>& log_std() const { return log_std_; }
  Mlp& net() { return net_; }
  const Mlp& net() const { return net_; }

  /// Serialize mean-net weights + log_std (architecture-checked on load).
  void save_state(BinaryWriter& w) const;
  void load_state(BinaryReader& r);

 private:
  Mlp net_;
  std::vector<double> log_std_;
  std::vector<double> log_std_grad_;
  Batch dmean_;  ///< reusable dL/dmean rows for backward_logp_batch
  std::vector<double> inv_std_;  ///< exp(−log_std) scratch, per batch call
  std::vector<double> inv_var_;  ///< exp(−2·log_std) scratch, per batch call
};

/// Scalar state-value network V(s).
class ValueNet {
 public:
  ValueNet(std::size_t obs_dim, std::vector<std::size_t> hidden, Rng& rng);

  /// V(s_n) for every row of a minibatch, written into `out` (resized to
  /// obs.rows()); records the batched tape for a later backward_batch.
  void value_batch(const Batch& obs, std::vector<double>& out);

  /// Inference-only batched values through a caller-owned workspace — the
  /// critic sweep of the vectorized rollout engine (one critic shared by
  /// all worker threads, one workspace per worker) and, as a one-row batch,
  /// its episode bootstraps.
  void value_batch(const Batch& obs, Mlp::Workspace& ws,
                   std::vector<double>& out) const;

  /// Critic backward over the tape recorded by the last value_batch:
  /// accumulates Σ_n coeff[n]·∇_θ V(s_n) (coeff = dL/dV). Bit-identical to
  /// one 1-row call per row in ascending row order.
  void backward_batch(const std::vector<double>& coeff);

  std::vector<double>& params() { return net_.params(); }
  const std::vector<double>& params() const { return net_.params(); }
  std::vector<double>& grads() { return net_.grads(); }
  void zero_grad() { net_.zero_grad(); }
  std::size_t n_params() const { return net_.params().size(); }

  Mlp& net() { return net_; }
  const Mlp& net() const { return net_; }

  /// Serialize critic weights (architecture-checked on load).
  void save_state(BinaryWriter& w) const;
  void load_state(BinaryReader& r);

 private:
  Mlp net_;
  Batch dout_;  ///< reusable B×1 grad-out rows for backward_batch
};

}  // namespace imap::nn
