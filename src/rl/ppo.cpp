#include "rl/ppo.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <numeric>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/stats.h"
#include "common/thread_pool.h"

namespace imap::rl {

PpoTrainer::PpoTrainer(const Env& proto, PpoOptions opts, Rng rng)
    : opts_(opts),
      env_(proto.clone()),
      rng_(rng),
      policy_(std::make_unique<nn::GaussianPolicy>(
          proto.obs_dim(), proto.act_dim(), opts.hidden, rng_,
          opts.init_log_std)),
      value_e_(std::make_unique<nn::ValueNet>(proto.obs_dim(), opts.hidden,
                                              rng_)),
      value_i_(std::make_unique<nn::ValueNet>(proto.obs_dim(), opts.hidden,
                                              rng_)),
      policy_opt_(policy_->n_params(),
                  {.lr = opts.lr, .max_grad_norm = opts.max_grad_norm}),
      value_e_opt_(value_e_->n_params(),
                   {.lr = opts.lr, .max_grad_norm = opts.max_grad_norm}),
      value_i_opt_(value_i_->n_params(),
                   {.lr = opts.lr, .max_grad_norm = opts.max_grad_norm}) {
  IMAP_CHECK(opts_.steps_per_iter > 0);
  IMAP_CHECK(opts_.minibatch > 0);
  IMAP_CHECK(opts_.num_workers >= 1);
  IMAP_CHECK(opts_.envs_per_worker >= 1);
}

void PpoTrainer::set_env(const Env& proto) {
  IMAP_CHECK(proto.obs_dim() == env_->obs_dim());
  IMAP_CHECK(proto.act_dim() == env_->act_dim());
  env_ = proto.clone();
  for (auto& w : workers_) w.set_env(proto);
}

void PpoTrainer::ensure_workers() {
  const auto k = static_cast<std::size_t>(opts_.num_workers);
  const auto e = static_cast<std::size_t>(opts_.envs_per_worker);
  if (workers_.size() == k && workers_[0].size() == e) return;
  workers_.clear();
  workers_.resize(k);
  std::vector<Rng> streams(e);
  for (std::size_t w = 0; w < k; ++w) {
    // Global slot g = w·E + i draws child stream g of the trainer seed —
    // the trace depends only on the global slot index (so any K × E
    // factorization of the same total merges bit-identically), never on
    // the thread count.
    for (std::size_t i = 0; i < e; ++i)
      streams[i] = rng_.split(0x6b1dc0deULL +
                              static_cast<std::uint64_t>(w * e + i));
    workers_[w].configure(*env_, streams);
  }
}

void PpoTrainer::collect(RolloutBuffer& buf) {
  const int total = opts_.num_workers * opts_.envs_per_worker;
  ensure_workers();
  // Per-global-slot budgets: steps/N each, remainder to the FIRST slots —
  // non-increasing, so every worker's live slots form a prefix.
  slot_budgets_.assign(static_cast<std::size_t>(total),
                       opts_.steps_per_iter / total);
  for (int g = 0; g < opts_.steps_per_iter % total; ++g) ++slot_budgets_[g];

  // K·E = 1: the one slot draws from the trainer stream (update() shuffles
  // from the same stream) and fills the caller's buffer in place, so no
  // second rollout-sized buffer exists. Both are handed back below.
  EnvSlot& slot0 = workers_[0].slot(0);
  if (total == 1) {
    slot0.rng = rng_;
    std::swap(slot0.buf, buf);
  }

  // Workers touch disjoint state (own slots: env, rng, buffer) and their
  // own batching scratch; the policy and extrinsic critic are read-only
  // during sampling (caller-owned workspaces, see VecEnv). The intrinsic
  // critic may still be training (see update()), so it is not read here.
  const auto e = static_cast<std::size_t>(opts_.envs_per_worker);
  parallel_for(
      workers_.size(),
      [&](std::size_t w) {
        workers_[w].collect(*policy_, *value_e_, slot_budgets_, w * e);
      },
      /*grain=*/1);

  // The intrinsic bootstraps need the critic's final weights: join its
  // chain first. A failure it recorded is rethrown once the rollout and the
  // trainer stream are handed back.
  std::exception_ptr lane_err;
  try {
    join_lanes();
    for (auto& w : workers_) w.bootstrap_intrinsic(*value_i_);
  } catch (...) {
    lane_err = std::current_exception();
  }

  ep_successes_ = 0;
  if (total == 1) {
    rng_ = slot0.rng;
    std::swap(slot0.buf, buf);
    ep_successes_ = slot0.ep_successes;
  } else {
    buf.clear();
    buf.reserve(static_cast<std::size_t>(opts_.steps_per_iter));
    buf.reserve_step(env_->obs_dim(), env_->act_dim());
    for (auto& w : workers_) {
      for (std::size_t i = 0; i < w.size(); ++i) {
        buf.append(w.slot(i).buf);
        ep_successes_ += w.slot(i).ep_successes;
      }
    }
  }
  steps_done_ += opts_.steps_per_iter;
  if (lane_err) std::rethrow_exception(lane_err);
}

PpoTrainer::PolicyPartial PpoTrainer::step_policy(
    const RolloutBuffer& buf, const std::vector<std::size_t>& order,
    std::size_t b, std::size_t e, const std::vector<double>& adv,
    double inv_bs) {
  PolicyScratch& sc = policy_sc_;
  PolicyPartial out;
  sc.obs.gather(buf.obs, order, b, e);
  sc.act.gather(buf.act, order, b, e);
  policy_->zero_grad();

  // Clipped surrogate (Eq. 1): gradient flows only through the unclipped
  // branch when it is the active minimum; inactive samples keep coefficient
  // 0.0, which the fixed-summation-order kernels treat as an exact bitwise
  // no-op.
  const std::size_t bs = e - b;
  policy_->log_prob_batch(sc.obs, sc.act, sc.lp);
  sc.coeff.resize(bs);
  for (std::size_t n = 0; n < bs; ++n) {
    const std::size_t idx = order[b + n];
    const double lp_new = sc.lp[n];
    const double ratio = std::exp(lp_new - buf.logp[idx]);
    IMAP_NCHECK_FINITE(ratio, "ppo.ratio");
    const double a = adv[idx];
    const bool active =
        (a >= 0.0) ? (ratio < 1.0 + opts_.clip) : (ratio > 1.0 - opts_.clip);
    sc.coeff[n] = active ? -a * ratio * inv_bs : 0.0;
    out.pol_loss += -std::min(ratio * a,
                              std::clamp(ratio, 1.0 - opts_.clip,
                                         1.0 + opts_.clip) *
                                  a);
    out.kl += buf.logp[idx] - lp_new;
    ++out.samples;
  }
  policy_->backward_logp_batch(sc.act, sc.coeff);
  IMAP_NCHECK_FINITE(out.pol_loss, "ppo.pol_loss");
  IMAP_NCHECK_FINITE(out.kl, "ppo.kl");

  if (opts_.ent_coef > 0.0) policy_->backward_entropy(-opts_.ent_coef);
  if (reg_) {
    reg_batch_.assign(order.begin() + static_cast<std::ptrdiff_t>(b),
                      order.begin() + static_cast<std::ptrdiff_t>(e));
    reg_(*policy_, buf, reg_batch_);
  }

  policy_->flat_params_into(flat_p_);
  policy_->flat_grads_into(flat_g_);
  policy_opt_.step(flat_p_, flat_g_);
  policy_->set_flat_params(flat_p_);
  policy_->clamp_log_std();
  return out;
}

template <class Rows>
double PpoTrainer::step_critic(nn::ValueNet& critic, nn::Adam& opt,
                               CriticScratch& sc, const Rows& obs,
                               const std::vector<double>& returns,
                               const std::vector<std::size_t>& order,
                               std::size_t b, std::size_t e) {
  sc.obs.gather(obs, order, b, e);
  critic.zero_grad();
  const std::size_t bs = e - b;
  const double inv_bs = 1.0 / static_cast<double>(bs);
  critic.value_batch(sc.obs, sc.vals);
  sc.vcoeff.resize(bs);
  double loss = 0.0;
  for (std::size_t n = 0; n < bs; ++n) {
    const double verr = sc.vals[n] - returns[order[b + n]];
    sc.vcoeff[n] = opts_.vf_coef * verr * inv_bs;
    loss += 0.5 * verr * verr;
  }
  critic.backward_batch(sc.vcoeff);
  IMAP_NCHECK_FINITE(loss, "ppo.val_loss");
  opt.step(critic.params(), critic.grads());
  return loss;
}

namespace {

/// Nonzero while the calling thread runs an update()'s policy chain, i.e.
/// opens gates that a pool helper may be waiting for. A helper that finds
/// itself on such a thread (run from inside a wait there) must not wait.
thread_local int t_opening_gates = 0;

struct OpeningGates {
  OpeningGates() { ++t_opening_gates; }
  ~OpeningGates() { --t_opening_gates; }
  OpeningGates(const OpeningGates&) = delete;
  OpeningGates& operator=(const OpeningGates&) = delete;
};

}  // namespace

/// The gates and claim state of one update()'s two critic chains. A unit is
/// one minibatch step, numbered epoch · batches + minibatch; a chain's units
/// run in order, one at a time, each by whichever thread claims it, so each
/// critic does exactly the arithmetic it does alone. Unit u of a chain is
/// open once the policy opened epoch u / batches. The atomics are
/// sequentially consistent: stop() and try_claim() rely on it to never both
/// miss each other.
struct PpoTrainer::Lanes {
  struct Chain {
    bool used = false;                 ///< has units at all (fixed at start)
    std::atomic<bool> ready{false};    ///< its inputs are in place
    std::atomic<bool> busy{false};     ///< a thread is stepping it
    std::atomic<bool> failed{false};   ///< a step threw: no further steps
    std::atomic<std::size_t> next{0};  ///< its next unit
    std::exception_ptr err;            ///< what it threw (written while busy)
  };

  Lanes(PpoTrainer* t, std::size_t b, bool intrinsic)
      : trainer(t), batches(b) {
    chain[0].used = true;
    chain[1].used = intrinsic;
  }

  PpoTrainer* const trainer;  ///< dereferenced only while holding a chain
  const std::size_t batches;  ///< minibatches per epoch
  std::atomic<std::size_t> opened{0};       ///< epochs the policy opened
  std::atomic<bool> decided{false};         ///< no further epoch opens
  std::atomic<bool> stopped{false};         ///< no further step starts
  std::atomic<std::size_t> policy_done{0};  ///< policy units stepped
  Chain chain[2];                           ///< 0 extrinsic, 1 intrinsic

  /// The chain's next unit may run now.
  bool open_unit(const Chain& ch) const {
    return ch.used && ch.ready && !ch.failed && !stopped &&
           ch.next < opened * batches;
  }

  /// No unit of the chain is left to start (one may still be running).
  bool finished(const Chain& ch) const {
    if (!ch.used || ch.failed || stopped) return true;
    if (!decided) return false;  // read before `opened`, which it freezes
    return ch.next >= opened * batches;
  }

  bool try_claim(Chain& ch) {
    if (!open_unit(ch) || ch.busy) return false;
    if (ch.busy.exchange(true)) return false;
    if (open_unit(ch)) return true;
    ch.busy = false;
    return false;
  }

  /// Run the claimed chain's next unit and release the chain. A step that
  /// throws fails its chain; the next join of that chain rethrows.
  void step(std::size_t c) {
    Chain& ch = chain[c];
    const std::size_t unit = ch.next;
    try {
      trainer->step_lane(c, unit);
      ch.next = unit + 1;
    } catch (...) {
      ch.err = std::current_exception();
      ch.failed = true;
    }
    ch.busy = false;
  }

  /// The pool helper: the extrinsic chain while it is behind the policy (or
  /// the intrinsic one has nothing open), the intrinsic chain otherwise;
  /// between gates it waits for the policy. It returns once neither chain
  /// has a unit left to start.
  void help() {
    while (true) {
      const bool behind = chain[0].next < policy_done;
      const std::size_t first =
          open_unit(chain[0]) && (behind || !open_unit(chain[1])) ? 0 : 1;
      if (try_claim(chain[first])) {
        step(first);
      } else if (try_claim(chain[1 - first])) {
        step(1 - first);
      } else if ((finished(chain[0]) && finished(chain[1])) ||
                 t_opening_gates > 0) {
        return;
      } else {
        std::this_thread::yield();
      }
    }
  }

  /// Claim and step what is left of chain c on the calling thread, wait for
  /// a unit another thread is running, and rethrow the chain's failure once.
  /// The gates must be decided (or the lanes stopped).
  void join(std::size_t c) {
    Chain& ch = chain[c];
    while (!finished(ch))
      if (try_claim(ch))
        step(c);
      else
        std::this_thread::yield();
    while (ch.busy) std::this_thread::yield();
    if (ch.err) {
      std::exception_ptr err;
      std::swap(err, ch.err);
      std::rethrow_exception(err);
    }
  }

  /// Start no further unit, wait for the running ones and drop what they
  /// raised: whoever stops the lanes reports its own failure, if any.
  void stop() {
    stopped = true;
    for (Chain& ch : chain) {
      while (ch.busy) std::this_thread::yield();
      ch.err = nullptr;
    }
  }
};

PpoTrainer::~PpoTrainer() {
  if (lanes_) lanes_->stop();
}

nn::ValueNet& PpoTrainer::value_i() {
  join_lanes();
  return *value_i_;
}

void PpoTrainer::join_lanes() const {
  if (!lanes_) return;
  lanes_->join(0);
  lanes_->join(1);
}

void PpoTrainer::step_lane(std::size_t chain, std::size_t unit) {
  const std::vector<double>& returns = chain == 0 ? returns_e_ : returns_i_;
  const std::size_t n = returns.size();
  const auto mb = static_cast<std::size_t>(opts_.minibatch);
  const std::size_t batches = (n + mb - 1) / mb;
  const std::vector<std::size_t>& order = orders_[unit / batches];
  const std::size_t b = (unit % batches) * mb;
  const std::size_t e = std::min(n, b + mb);
  if (chain == 0)
    losses_e_[unit] = step_critic(*value_e_, value_e_opt_, critic_e_sc_,
                                  lane_buf_->obs, returns, order, b, e);
  else
    step_critic(*value_i_, value_i_opt_, critic_i_sc_, obs_i_, returns, order,
                b, e);
}

void PpoTrainer::update(RolloutBuffer& buf, double tau, IterStats& stats) {
  join_lanes();
  const std::size_t n = buf.size();
  const auto mb = static_cast<std::size_t>(opts_.minibatch);
  const std::size_t batches = (n + mb - 1) / mb;
  const auto epochs = static_cast<std::size_t>(std::max(opts_.epochs, 0));
  // Intrinsic values are only needed when the bonus channel is active.
  const bool use_intrinsic = intrinsic_ != nullptr;

  auto gae_e = compute_gae(buf.rew_e, buf.val_e, buf.done, buf.boundary,
                           buf.last_val_e, opts_.gamma, opts_.gae_lambda);
  normalize_advantages(gae_e.advantages);
  returns_e_ = std::move(gae_e.returns);
  lane_buf_ = &buf;
  orders_.resize(epochs);
  losses_e_.resize(epochs * batches);
  policy_sc_.parts.resize(batches);

  auto lanes = std::make_shared<Lanes>(this, batches, use_intrinsic);
  lanes_ = lanes;
  // Epoch e's shuffle is drawn from rng_ (Fisher–Yates) when the policy
  // chain reaches it, exactly as a serial loop draws it, and then opens
  // that epoch to the critics.
  const auto open_epoch = [&](std::size_t epoch) {
    std::vector<std::size_t>& order = orders_[epoch];
    if (epoch == 0) {
      order.resize(n);
      std::iota(order.begin(), order.end(), 0);
    } else {
      order = orders_[epoch - 1];
    }
    for (std::size_t i = n; i > 1; --i) {
      const auto j =
          static_cast<std::size_t>(rng_.uniform_int(0, static_cast<int>(i) - 1));
      std::swap(order[i - 1], order[j]);
    }
    lanes->opened = epoch + 1;
  };

  double pol_loss_acc = 0.0, kl_acc = 0.0;
  std::size_t loss_count = 0, epochs_run = 0;
  try {
    const OpeningGates gates;
    // The extrinsic chain can start epoch 0 while the caller refreshes the
    // intrinsic values below.
    lanes->chain[0].ready = true;
    if (epochs > 0) open_epoch(0);
    submit_detached([lanes] { lanes->help(); });

    std::vector<double> adv = std::move(gae_e.advantages);
    if (use_intrinsic) {
      // Batched refresh in minibatch-sized chunks through the critic's own
      // workspace, which the chain's steps size the same; each value is
      // bit-identical to a one-row batch of its row.
      CriticScratch& sc = critic_i_sc_;
      for (std::size_t b = 0; b < n; b += mb) {
        const std::size_t e = std::min(n, b + mb);
        sc.obs.gather_range(buf.obs, b, e);
        value_i_->value_batch(sc.obs, sc.vals);
        for (std::size_t i = b; i < e; ++i) buf.val_i[i] = sc.vals[i - b];
      }
      auto gae_i = compute_gae(buf.rew_i, buf.val_i, buf.done, buf.boundary,
                               buf.last_val_i, opts_.gamma, opts_.gae_lambda);
      normalize_advantages(gae_i.advantages);
      // Combined advantage Â_E + τ·Â_I (Eq. 14).
      for (std::size_t i = 0; i < n; ++i) adv[i] += tau * gae_i.advantages[i];
      // The intrinsic chain may outlive this call and `buf`: it trains on
      // its own copies.
      obs_i_.gather_range(buf.obs, 0, n);
      returns_i_ = std::move(gae_i.returns);
      lanes->chain[1].ready = true;
    }

    // The policy chain, on the caller. Its per-minibatch partials merge in
    // minibatch order after each epoch, for the KL stop.
    for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
      if (epoch > 0) open_epoch(epoch);
      const std::vector<std::size_t>& order = orders_[epoch];
      for (std::size_t j = 0; j < batches; ++j) {
        const std::size_t b = j * mb;
        const std::size_t e = std::min(n, b + mb);
        const double inv_bs = 1.0 / static_cast<double>(e - b);
        policy_sc_.parts[j] = step_policy(buf, order, b, e, adv, inv_bs);
        lanes->policy_done.store(epoch * batches + j + 1,
                                 std::memory_order_relaxed);
      }

      double epoch_kl = 0.0;
      std::size_t epoch_samples = 0;
      for (std::size_t j = 0; j < batches; ++j) {
        const PolicyPartial& pol = policy_sc_.parts[j];
        pol_loss_acc += pol.pol_loss;
        epoch_kl += pol.kl;
        epoch_samples += pol.samples;
        loss_count += pol.samples;
      }
      ++epochs_run;

      const double mean_kl =
          epoch_samples ? epoch_kl / static_cast<double>(epoch_samples) : 0.0;
      kl_acc = mean_kl;
      if (opts_.target_kl > 0.0 && mean_kl > opts_.target_kl) break;
    }
    lanes->decided = true;
    // The extrinsic chain reads `buf` and feeds stats.value_loss: it ends
    // here. The intrinsic chain may run on.
    lanes->join(0);
  } catch (...) {
    lanes->stop();
    throw;
  }

  double val_loss_acc = 0.0;
  for (std::size_t u = 0; u < epochs_run * batches; ++u)
    val_loss_acc += losses_e_[u];

  stats.policy_loss =
      loss_count ? pol_loss_acc / static_cast<double>(loss_count) : 0.0;
  stats.value_loss =
      loss_count ? val_loss_acc / static_cast<double>(loss_count) : 0.0;
  stats.approx_kl = kl_acc;
  stats.entropy = policy_->entropy();
}

IterStats PpoTrainer::iterate() {
  collect(rollout_);

  double tau = 0.0;
  if (intrinsic_) tau = intrinsic_(rollout_);

  IterStats stats;
  stats.iter = iter_++;
  stats.total_steps = steps_done_;
  stats.mean_return = mean(rollout_.episode_returns);
  stats.mean_surrogate = mean(rollout_.episode_surrogate);
  stats.episodes = static_cast<int>(rollout_.episode_returns.size());
  stats.success_rate =
      stats.episodes
          ? static_cast<double>(ep_successes_) / stats.episodes
          : 0.0;
  stats.mean_intrinsic = mean(rollout_.rew_i);
  stats.tau = tau;

  update(rollout_, tau, stats);
  return stats;
}

std::vector<IterStats> PpoTrainer::train(long long total_steps) {
  std::vector<IterStats> out;
  while (steps_done_ < total_steps) out.push_back(iterate());
  return out;
}

void PpoTrainer::save_state(ArchiveWriter& a) const {
  join_lanes();
  auto& meta = a.section("ppo/meta");
  meta.write_u64(env_->obs_dim());
  meta.write_u64(env_->act_dim());
  meta.write_u64(policy_->n_params());
  meta.write_u64(value_e_->n_params());
  meta.write_u64(value_i_->n_params());
  meta.write_i64(opts_.num_workers);
  meta.write_i64(opts_.envs_per_worker);
  meta.write_i64(opts_.steps_per_iter);
  meta.write_i64(opts_.minibatch);
  meta.write_i64(opts_.epochs);

  auto& nets = a.section("ppo/nets");
  policy_->save_state(nets);
  value_e_->save_state(nets);
  value_i_->save_state(nets);

  auto& opt = a.section("ppo/opt");
  policy_opt_.save_state(opt);
  value_e_opt_.save_state(opt);
  value_i_opt_.save_state(opt);

  rng_.save_state(a.section("ppo/rng"));

  auto& loop = a.section("ppo/loop");
  loop.write_i64(steps_done_);
  loop.write_i64(iter_);

  // Worker slots only exist once a collect has run; an un-built fleet is
  // rebuilt deterministically from the restored Rng seed instead.
  if (!workers_.empty()) {
    auto& ws = a.section("ppo/workers");
    ws.write_u64(workers_.size());
    for (const auto& w : workers_) w.save_state(ws);
  }
}

void PpoTrainer::load_state(const ArchiveReader& a) {
  join_lanes();
  auto meta = a.section("ppo/meta");
  IMAP_CHECK_MSG(meta.read_u64() == env_->obs_dim() &&
                     meta.read_u64() == env_->act_dim(),
                 "PPO checkpoint was trained on a different environment");
  IMAP_CHECK_MSG(meta.read_u64() == policy_->n_params() &&
                     meta.read_u64() == value_e_->n_params() &&
                     meta.read_u64() == value_i_->n_params(),
                 "PPO checkpoint has a different network architecture");
  IMAP_CHECK_MSG(meta.read_i64() == opts_.num_workers &&
                     meta.read_i64() == opts_.envs_per_worker &&
                     meta.read_i64() == opts_.steps_per_iter &&
                     meta.read_i64() == opts_.minibatch &&
                     meta.read_i64() == opts_.epochs,
                 "PPO checkpoint was written under different options");

  auto nets = a.section("ppo/nets");
  policy_->load_state(nets);
  value_e_->load_state(nets);
  value_i_->load_state(nets);

  auto opt = a.section("ppo/opt");
  policy_opt_.load_state(opt);
  value_e_opt_.load_state(opt);
  value_i_opt_.load_state(opt);

  auto rng_r = a.section("ppo/rng");
  rng_.load_state(rng_r);

  auto loop = a.section("ppo/loop");
  steps_done_ = loop.read_i64();
  iter_ = static_cast<int>(loop.read_i64());

  // Any trainer that has collected saves its in-flight episodes as slot
  // state; a snapshot without it predates the one-collector trainer and
  // would silently restart the episode.
  IMAP_CHECK_MSG(steps_done_ == 0 || a.has("ppo/workers"),
                 "PPO snapshot has no rollout-slot state (written by an older "
                 "build) — delete the stale snapshot and retrain");
  if (a.has("ppo/workers")) {
    ensure_workers();
    auto ws = a.section("ppo/workers");
    IMAP_CHECK_MSG(ws.read_u64() == workers_.size(),
                   "checkpoint has wrong rollout-worker count");
    for (auto& w : workers_) w.load_state(ws);
  } else {
    workers_.clear();
  }
}

}  // namespace imap::rl
