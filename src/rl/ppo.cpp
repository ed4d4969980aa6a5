#include "rl/ppo.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <numeric>
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
  // own batching scratch; the policy and value nets are read-only during
  // sampling (caller-owned workspaces, see VecEnv).
  const auto e = static_cast<std::size_t>(opts_.envs_per_worker);
  parallel_for(
      workers_.size(),
      [&](std::size_t w) {
        workers_[w].collect(*policy_, *value_e_, *value_i_, slot_budgets_,
                            w * e);
      },
      /*grain=*/1);

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

double PpoTrainer::step_critic(nn::ValueNet& critic, nn::Adam& opt,
                               CriticScratch& sc, const RolloutBuffer& buf,
                               const std::vector<double>& returns,
                               const std::vector<std::size_t>& order,
                               std::size_t b, std::size_t e, double inv_bs) {
  sc.obs.gather(buf.obs, order, b, e);
  critic.zero_grad();
  const std::size_t bs = e - b;
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

/// Claim state of one chain in run_chains.
struct Chain {
  std::atomic<bool> busy{false};      ///< a participant is stepping it
  std::atomic<std::size_t> next{0};   ///< its next unit
};

/// Claim `ch` when it has units left and nobody is stepping it. The acquire
/// pairs with the release of the previous holder, so a claimant sees every
/// write of the units before.
bool try_claim(Chain& ch, std::size_t units) {
  if (ch.next.load(std::memory_order_relaxed) >= units) return false;
  if (ch.busy.exchange(true, std::memory_order_acquire)) return false;
  if (ch.next.load(std::memory_order_relaxed) < units) return true;
  ch.busy.store(false, std::memory_order_release);
  return false;
}

/// Run `chains` sequences of `units` steps, one pool join in all:
/// step(c, j) runs unit j of chain c, and the units of one chain run in
/// order, one at a time, so each chain does exactly the arithmetic it does
/// alone whichever thread runs which unit. Chain 0 is at home on
/// participant 0 (the caller), the others spread over the remaining
/// participants. A participant steps its home chains first, round-robin
/// when it has several, and keeps a chain while it has no other home chain
/// with units left, so a network's state stays on one core. Once its home
/// chains are done or held, it takes over the chain with the most units
/// left that nobody holds, and returns when there is none. Under
/// ScopedSerial the one participant steps every chain round-robin inline.
/// A step that throws keeps its chain held, so the others finish the other
/// chains and the first exception reaches the caller.
void run_chains(std::size_t chains, std::size_t units,
                const std::function<void(std::size_t, std::size_t)>& step) {
  const std::size_t parts = std::min(effective_concurrency(), chains);
  std::vector<Chain> state(chains);
  const auto home = [parts](std::size_t c) {
    return c == 0 || parts == 1 ? 0 : 1 + (c - 1) % (parts - 1);
  };
  const auto left = [&](std::size_t c) {
    const std::size_t next = state[c].next.load(std::memory_order_relaxed);
    return next < units ? units - next : 0;
  };
  parallel_for(
      parts,
      [&](std::size_t self) {
        std::size_t cursor = 0;  // round-robin position among home chains
        while (true) {
          std::size_t pick = chains;
          for (std::size_t k = 0; k < chains && pick == chains; ++k) {
            const std::size_t c = (cursor + k) % chains;
            if (home(c) == self && try_claim(state[c], units)) pick = c;
          }
          while (pick == chains) {
            std::size_t best = chains;
            for (std::size_t c = 0; c < chains; ++c)
              if (left(c) > 0 &&
                  !state[c].busy.load(std::memory_order_relaxed) &&
                  (best == chains || left(c) > left(best)))
                best = c;
            if (best == chains) return;
            if (try_claim(state[best], units)) pick = best;
          }
          const auto other_home_left = [&] {
            for (std::size_t c = 0; c < chains; ++c)
              if (c != pick && home(c) == self && left(c) > 0) return true;
            return false;
          };
          Chain& ch = state[pick];
          do {
            const std::size_t j = ch.next.load(std::memory_order_relaxed);
            step(pick, j);
            ch.next.store(j + 1, std::memory_order_relaxed);
          } while (ch.next.load(std::memory_order_relaxed) < units &&
                   !other_home_left());
          ch.busy.store(false, std::memory_order_release);
          cursor = pick + 1;
        }
      },
      /*grain=*/1);
}

}  // namespace

void PpoTrainer::update(RolloutBuffer& buf, double tau, IterStats& stats) {
  const std::size_t n = buf.size();

  // Intrinsic values are only needed when the bonus channel is active.
  const bool use_intrinsic = intrinsic_ != nullptr;
  if (use_intrinsic) {
    // Chunked batched refresh through the critic's workspace; each value
    // is bit-identical to a one-row batch of its row.
    constexpr std::size_t kChunk = 1024;
    CriticScratch& sc = critic_i_sc_;
    for (std::size_t b = 0; b < n; b += kChunk) {
      const std::size_t e = std::min(n, b + kChunk);
      sc.obs.gather_range(buf.obs, b, e);
      value_i_->value_batch(sc.obs, sc.vals);
      for (std::size_t i = b; i < e; ++i) buf.val_i[i] = sc.vals[i - b];
    }
  }

  auto gae_e = compute_gae(buf.rew_e, buf.val_e, buf.done, buf.boundary,
                           buf.last_val_e, opts_.gamma, opts_.gae_lambda);
  normalize_advantages(gae_e.advantages);

  GaeResult gae_i;
  if (use_intrinsic) {
    gae_i = compute_gae(buf.rew_i, buf.val_i, buf.done, buf.boundary,
                        buf.last_val_i, opts_.gamma, opts_.gae_lambda);
    normalize_advantages(gae_i.advantages);
  }

  // Combined advantage Â_E + τ·Â_I (Eq. 14).
  std::vector<double> adv(n);
  for (std::size_t i = 0; i < n; ++i) {
    adv[i] = gae_e.advantages[i];
    if (use_intrinsic) adv[i] += tau * gae_i.advantages[i];
  }

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);

  double pol_loss_acc = 0.0, val_loss_acc = 0.0, kl_acc = 0.0;
  std::size_t loss_count = 0;

  // Each network is one chain per epoch: the policy and the critics share
  // no parameters, gradients, optimiser state or scratch (the rollout,
  // order and targets are only read), so every chain runs exactly the
  // arithmetic it would run alone, and the per-minibatch losses merge after
  // the join in minibatch order: the trace does not depend on the thread
  // count.
  const auto mb = static_cast<std::size_t>(opts_.minibatch);
  const std::size_t batches = (n + mb - 1) / mb;
  const auto step_chain = [&](std::size_t chain, std::size_t j) {
    const std::size_t b = j * mb;
    const std::size_t e = std::min(n, b + mb);
    const double inv_bs = 1.0 / static_cast<double>(e - b);
    if (chain == 0) {
      policy_sc_.parts[j] = step_policy(buf, order, b, e, adv, inv_bs);
    } else if (chain == 1) {
      critic_e_sc_.losses[j] = step_critic(*value_e_, value_e_opt_,
                                           critic_e_sc_, buf, gae_e.returns,
                                           order, b, e, inv_bs);
    } else {
      step_critic(*value_i_, value_i_opt_, critic_i_sc_, buf, gae_i.returns,
                  order, b, e, inv_bs);
    }
  };
  policy_sc_.parts.resize(batches);
  critic_e_sc_.losses.resize(batches);

  for (int epoch = 0; epoch < opts_.epochs; ++epoch) {
    // Fisher–Yates with our Rng for reproducibility.
    for (std::size_t i = n; i > 1; --i) {
      const auto j =
          static_cast<std::size_t>(rng_.uniform_int(0, static_cast<int>(i) - 1));
      std::swap(order[i - 1], order[j]);
    }

    run_chains(use_intrinsic ? 3 : 2, batches, step_chain);

    double epoch_kl = 0.0;
    std::size_t epoch_samples = 0;
    for (std::size_t j = 0; j < batches; ++j) {
      const PolicyPartial& pol = policy_sc_.parts[j];
      pol_loss_acc += pol.pol_loss;
      val_loss_acc += critic_e_sc_.losses[j];
      epoch_kl += pol.kl;
      epoch_samples += pol.samples;
      loss_count += pol.samples;
    }

    const double mean_kl =
        epoch_samples ? epoch_kl / static_cast<double>(epoch_samples) : 0.0;
    kl_acc = mean_kl;
    if (opts_.target_kl > 0.0 && mean_kl > opts_.target_kl) break;
  }

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
