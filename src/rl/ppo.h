#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/serialize.h"
#include "nn/adam.h"
#include "nn/gaussian.h"
#include "rl/env.h"
#include "rl/gae.h"
#include "rl/rollout.h"
#include "rl/vec_env.h"

namespace imap::rl {

struct PpoOptions {
  std::vector<std::size_t> hidden{32, 32};
  int steps_per_iter = 2048;
  int epochs = 6;
  int minibatch = 128;
  double gamma = 0.99;
  double gae_lambda = 0.95;
  double clip = 0.2;        ///< ε in Eq. (1)
  double lr = 1e-3;
  double vf_coef = 0.5;
  double ent_coef = 0.0;
  double init_log_std = -0.5;
  double max_grad_norm = 0.5;
  double target_kl = 0.05;  ///< early-stop the update epochs past this KL

  /// K parallel rollout workers, each with its own env clone, Rng stream
  /// (split from the trainer seed) and rollout buffer, merged in
  /// worker-index order. K fixes the numeric trace; the thread count does
  /// not.
  int num_workers = 1;
  /// E lockstep environment slots per worker (the vectorized rollout
  /// engine). Global slot g = w·E + i draws from the trainer-seed child
  /// stream g and the merged rollout is concatenated in global slot order,
  /// so the trace depends only on the TOTAL slot count K·E — any
  /// (workers × slots) factorization of the same total is bit-identical.
  /// At K·E = 1 the one slot draws from the trainer stream itself.
  int envs_per_worker = 1;
};

/// Per-iteration diagnostics.
struct IterStats {
  int iter = 0;
  long long total_steps = 0;
  double mean_return = 0.0;     ///< completed-episode extrinsic return
  double mean_surrogate = 0.0;  ///< completed-episode surrogate (r̂) sum
  double success_rate = 0.0;    ///< fraction of completed episodes succeeding
  int episodes = 0;
  double policy_loss = 0.0;
  double value_loss = 0.0;
  double approx_kl = 0.0;
  double entropy = 0.0;
  double mean_intrinsic = 0.0;  ///< mean per-step intrinsic bonus
  double tau = 0.0;             ///< temperature used this iteration
};

/// Proximal Policy Optimization (Eq. 1) with GAE and an optional second,
/// intrinsically-motivated reward channel (Eq. 14's Â_E + τ·Â_I).
///
/// The same trainer drives:
///  * victim training (extrinsic = task reward, no intrinsic hook),
///  * SA-RL / AP-MARL attack baselines (extrinsic = −r̂ via a threat-model
///    wrapper env, no intrinsic hook),
///  * IMAP (intrinsic hook installed by core::ImapTrainer, which also sets τ
///    per iteration — Algorithm 1).
class PpoTrainer {
 public:
  /// Called after each sampling stage with the fresh rollout. Fills
  /// buf.rew_i and returns the temperature τ_k for this iteration.
  using IntrinsicHook = std::function<double(RolloutBuffer&)>;

  /// Robust-training hook (defense methods): called once per minibatch with
  /// the batch indices; must accumulate extra gradients into the policy.
  using RegularizerHook = std::function<void(
      nn::GaussianPolicy&, const RolloutBuffer&,
      const std::vector<std::size_t>&)>;

  PpoTrainer(const Env& proto, PpoOptions opts, Rng rng);
  PpoTrainer(const PpoTrainer&) = delete;
  PpoTrainer& operator=(const PpoTrainer&) = delete;
  /// Stops a pending intrinsic chain (see update()) without finishing it;
  /// a failure it recorded is dropped.
  ~PpoTrainer();

  /// One sampling + optimizing stage.
  IterStats iterate();

  /// Run iterations until at least `total_steps` environment steps have been
  /// consumed; returns per-iteration stats.
  std::vector<IterStats> train(long long total_steps);

  nn::GaussianPolicy& policy() { return *policy_; }
  const nn::GaussianPolicy& policy() const { return *policy_; }
  nn::ValueNet& value_e() { return *value_e_; }
  /// The intrinsic critic, once its pending chain (see update()) is joined.
  /// Rethrows what that chain raised.
  nn::ValueNet& value_i();
  const PpoOptions& options() const { return opts_; }
  long long steps_done() const { return steps_done_; }
  int iterations_done() const { return iter_; }

  void set_intrinsic_hook(IntrinsicHook hook) { intrinsic_ = std::move(hook); }
  void set_regularizer_hook(RegularizerHook hook) { reg_ = std::move(hook); }

  /// Swap the training environment (must have identical spaces). Used by
  /// alternating adversarial training (ATLA), where the victim keeps its
  /// parameters while the wrapping adversary changes between rounds.
  void set_env(const Env& proto);

  /// Sampling and optimisation stages of iterate(), exposed separately so
  /// benchmarks can time the update in isolation on a fixed rollout.
  ///
  /// collect() fills `buf` with one rollout. The intrinsic critic may still
  /// be training on the previous rollout meanwhile, so the rollout only
  /// records the observations its intrinsic bootstraps need; at its end
  /// collect() joins that chain and then fills buf.last_val_i, so `buf` is
  /// complete when it returns.
  void collect(RolloutBuffer& buf);

  /// update() steps each network (the policy and each critic) as one chain
  /// of minibatches per epoch, each step on rows it gathers itself, in the
  /// same order as a serial loop. The caller steps the policy and opens
  /// epoch e's gate when it draws that epoch's shuffle; a critic steps
  /// epoch e only once its gate is open, and a target_kl stop closes the
  /// rest. One pool helper steps the extrinsic critic while it is behind
  /// the policy and the intrinsic critic otherwise. update() returns once
  /// the policy and extrinsic chains are done, so `stats` is complete; the
  /// intrinsic chain, which works on its own copies of the rows, returns
  /// and epoch orders, may still be pending and runs beside the next
  /// rollout. Every join (the next collect(), update(), value_i(),
  /// save_state(), load_state()) claims whatever is left of it, so a busy
  /// pool cannot hold it up, and rethrows what it raised. No result depends
  /// on the thread count or on which thread stepped which minibatch.
  void update(RolloutBuffer& buf, double tau, IterStats& stats);

  /// Full training-state snapshot: nets, Adam moments, Rng streams, loop
  /// counters and per-slot mid-episode state (in-flight episodes are
  /// reconstructed on restore by replaying their action history into fresh
  /// env clones). Restoring into a trainer built with the same prototype,
  /// options and seed resumes training bit-identically to never having
  /// stopped. A snapshot taken after any collection must carry the slot
  /// state; one without it is rejected rather than restarting episodes.
  /// Both join a pending intrinsic chain first.
  void save_state(ArchiveWriter& a) const;
  void load_state(const ArchiveReader& a);

 private:
  /// Loss partials of one policy minibatch.
  struct PolicyPartial {
    double pol_loss = 0.0;
    double kl = 0.0;
    std::size_t samples = 0;
  };

  /// Scratch of the policy chain; it grows to the minibatch high-water mark
  /// once and is then reused.
  struct PolicyScratch {
    nn::Batch obs;                      ///< gathered observation rows
    nn::Batch act;                      ///< gathered action rows
    std::vector<double> lp;             ///< log π(a|s) under the current θ
    std::vector<double> coeff;          ///< policy-gradient coefficients
    std::vector<PolicyPartial> parts;   ///< per minibatch of the epoch
  };

  /// Scratch of one critic chain; each critic owns one, so the extrinsic
  /// and intrinsic critics can step at the same time.
  struct CriticScratch {
    nn::Batch obs;               ///< gathered observation rows
    std::vector<double> vals;    ///< critic outputs
    std::vector<double> vcoeff;  ///< per-sample critic dL/dV coefficients
  };

  /// Gates and claim state of one update()'s critic chains (rl/ppo.cpp).
  /// Shared with the pool helper, which may start after the update, the
  /// join or even the trainer are gone: it then finds no chain to claim and
  /// returns without touching the trainer.
  struct Lanes;

  void ensure_workers();

  /// Finish the pending critic chains on the calling thread (helping the
  /// pool helper, never waiting for it to start) and rethrow a failure one
  /// of them recorded. Const because snapshots join: the chains it finishes
  /// change the intrinsic critic, which the snapshot must include.
  void join_lanes() const;
  /// Step unit `unit` (epoch · minibatches + minibatch) of critic chain
  /// `chain` (0 = extrinsic, 1 = intrinsic).
  void step_lane(std::size_t chain, std::size_t unit);

  /// One step of the policy chain, on the minibatch order[b..e): gather its
  /// rows, zero_grad, forward, clipped-surrogate coefficients, backward,
  /// entropy and regularizer terms, Adam step and log-std clamp.
  PolicyPartial step_policy(const RolloutBuffer& buf,
                            const std::vector<std::size_t>& order,
                            std::size_t b, std::size_t e,
                            const std::vector<double>& adv, double inv_bs);

  /// One step of a critic chain on the same minibatch: gather its rows,
  /// zero_grad, regression onto `returns` (dL/dV = vf_coef · (V − R) / bs),
  /// backward and Adam step. Returns Σ ½(V − R)² over the minibatch.
  template <class Rows>
  double step_critic(nn::ValueNet& critic, nn::Adam& opt, CriticScratch& sc,
                     const Rows& obs, const std::vector<double>& returns,
                     const std::vector<std::size_t>& order, std::size_t b,
                     std::size_t e);

  PpoOptions opts_;
  std::unique_ptr<Env> env_;  ///< prototype the rollout slots are cloned from
  Rng rng_;
  std::unique_ptr<nn::GaussianPolicy> policy_;
  std::unique_ptr<nn::ValueNet> value_e_;
  std::unique_ptr<nn::ValueNet> value_i_;
  nn::Adam policy_opt_;
  nn::Adam value_e_opt_;
  nn::Adam value_i_opt_;
  IntrinsicHook intrinsic_;
  RegularizerHook reg_;

  std::vector<VecEnv> workers_;          ///< K vectorized rollout workers
  std::vector<int> slot_budgets_;        ///< per-global-slot step budgets
  RolloutBuffer rollout_;                ///< reused across iterations

  // Hot-path scratch reused across update() calls (capacity only grows).
  PolicyScratch policy_sc_;              ///< policy chain
  CriticScratch critic_e_sc_;            ///< extrinsic critic chain
  CriticScratch critic_i_sc_;            ///< intrinsic critic chain
  std::vector<double> flat_p_;           ///< optimiser param staging
  std::vector<double> flat_g_;           ///< optimiser grad staging
  std::vector<std::size_t> reg_batch_;   ///< minibatch indices for reg_ hook

  // What the critic chains read, kept until the chains are joined: the
  // extrinsic chain is joined inside update() and also reads the caller's
  // rollout; the intrinsic chain outlives update() and reads only copies.
  std::shared_ptr<Lanes> lanes_;         ///< the last update()'s chains
  const RolloutBuffer* lane_buf_ = nullptr;  ///< the extrinsic chain's rows
  std::vector<std::vector<std::size_t>> orders_;  ///< shuffle per epoch
  std::vector<double> returns_e_;        ///< extrinsic regression targets
  std::vector<double> losses_e_;         ///< Σ ½(V − R)² per unit
  nn::Batch obs_i_;                      ///< the intrinsic chain's rows
  std::vector<double> returns_i_;        ///< intrinsic regression targets

  long long steps_done_ = 0;
  int iter_ = 0;
  int ep_successes_ = 0;  // per-iteration counter
};

}  // namespace imap::rl
