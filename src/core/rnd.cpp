#include "core/rnd.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"

namespace imap::core {

RndNovelty::RndNovelty(std::size_t obs_dim, std::size_t embed_dim, Rng rng,
                       double lr)
    : target_({obs_dim, 32, embed_dim}, rng, /*init_scale=*/1.0),
      predictor_({obs_dim, 32, embed_dim}, rng, /*init_scale=*/1.0),
      opt_(predictor_.params().size(), {.lr = lr, .max_grad_norm = 1.0}),
      rng_(rng.split(0x9dULL)) {
  // The target's output layer keeps full-scale weights (the policy-head
  // shrink in Mlp would make every embedding ≈ 0 and the bonus vacuous).
  Rng wrng = rng.split(0xfeedULL);
  auto& p = target_.params();
  for (std::size_t i = p.size() - (32 * embed_dim + embed_dim); i < p.size();
       ++i)
    p[i] = wrng.normal(0.0, 0.3);
}

void RndNovelty::update(const rl::RolloutBuffer& buf, int minibatch) {
  const std::size_t n = buf.size();
  if (n == 0) return;
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = n; i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<int>(i) - 1));
    std::swap(order[i - 1], order[j]);
  }
  for (std::size_t start = 0; start < n;
       start += static_cast<std::size_t>(minibatch)) {
    const std::size_t end =
        std::min(n, start + static_cast<std::size_t>(minibatch));
    const std::size_t bs = end - start;
    const double inv_bs = 1.0 / static_cast<double>(bs);
    predictor_.zero_grad();
    // Batched distillation step — gradients are bit-identical to the
    // per-sample loop (same grad expression, fixed summation order).
    obs_b_.gather(buf.obs, order, start, end);
    const nn::Batch& tgt = target_.forward_batch(obs_b_);
    const nn::Batch& pred = predictor_.forward_batch(obs_b_);
    const std::size_t ed = embed_dim();
    grad_b_.resize(bs, ed);
    for (std::size_t r = 0; r < bs; ++r) {
      const double* t = tgt.row(r);
      const double* p = pred.row(r);
      double* g = grad_b_.row(r);
      for (std::size_t i = 0; i < ed; ++i)
        g[i] = 2.0 * inv_bs * (p[i] - t[i]);
    }
    predictor_.backward_batch(grad_b_);
    opt_.step(predictor_.params(), predictor_.grads());
  }
}

void RndNovelty::score(rl::RolloutBuffer& buf) {
  // Chunk-batched novelty sweep: ‖g(s) − f(s)‖² per row, summed in
  // ascending-dim order.
  const std::size_t n = buf.size();
  constexpr std::size_t kChunk = 1024;
  for (std::size_t b = 0; b < n; b += kChunk) {
    const std::size_t e = std::min(n, b + kChunk);
    obs_b_.gather_range(buf.obs, b, e);
    const nn::Batch& tgt = target_.forward_batch(obs_b_);
    const nn::Batch& pred = predictor_.forward_batch(obs_b_);
    const std::size_t ed = embed_dim();
    for (std::size_t r = 0; r < e - b; ++r) {
      const double* t = tgt.row(r);
      const double* g = pred.row(r);
      double sq = 0.0;
      for (std::size_t i = 0; i < ed; ++i) sq += (g[i] - t[i]) * (g[i] - t[i]);
      buf.rew_i[b + r] = sq;
    }
  }
}

void RndNovelty::compute(rl::RolloutBuffer& buf) {
  score(buf);
  update(buf);
}

void RndNovelty::save_state(BinaryWriter& w) const {
  target_.save_state(w);
  predictor_.save_state(w);
  opt_.save_state(w);
  rng_.save_state(w);
}

void RndNovelty::load_state(BinaryReader& r) {
  target_.load_state(r);
  predictor_.load_state(r);
  opt_.load_state(r);
  rng_.load_state(r);
}

}  // namespace imap::core
