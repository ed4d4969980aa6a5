#include "nn/mlp.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <span>

#include "common/check.h"
#include "nn/kernel_backend.h"
#include "nn/matrix.h"

namespace imap::nn {

Mlp::Mlp(std::vector<std::size_t> sizes, Rng& rng, double init_scale)
    : sizes_(std::move(sizes)) {
  IMAP_CHECK_MSG(sizes_.size() >= 2, "Mlp needs at least in and out dims");
  std::size_t total = 0;
  for (std::size_t i = 0; i + 1 < sizes_.size(); ++i) {
    LayerView l;
    l.in = sizes_[i];
    l.out = sizes_[i + 1];
    l.w_off = total;
    total += l.in * l.out;
    l.b_off = total;
    total += l.out;
    layers_.push_back(l);
  }
  params_.resize(total);
  grads_.assign(total, 0.0);
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    const auto& l = layers_[li];
    const bool last = (li + 1 == layers_.size());
    // Orthogonal-ish init is overkill here; scaled Gaussian with fan-in
    // normalisation trains these tiny nets reliably.
    const double std = init_scale / std::sqrt(static_cast<double>(l.in)) *
                       (last ? 0.01 : 1.0);
    for (std::size_t i = 0; i < l.in * l.out; ++i)
      params_[l.w_off + i] = rng.normal(0.0, std);
    for (std::size_t i = 0; i < l.out; ++i) params_[l.b_off + i] = 0.0;
  }
}

std::uint64_t Mlp::next_weight_version() {
  // Starts at 1 so a never-built Workspace (wt_version 0) never matches.
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

void Mlp::ensure_transpose_cache(Workspace& ws) const {
  if (ws.wt_version == weight_version_) return;
  ws.wt.resize(layers_.size());
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    const auto& l = layers_[li];
    auto& t = ws.wt[li];
    if (t.size() < l.in * l.out) t.resize(l.in * l.out);
    const double* w = params_.data() + l.w_off;
    for (std::size_t r = 0; r < l.out; ++r)
      for (std::size_t c = 0; c < l.in; ++c) t[c * l.out + r] = w[r * l.in + c];
  }
  ws.wt_version = weight_version_;
}

const Batch& Mlp::forward_batch(const Batch& x, Workspace& ws) const {
  IMAP_CHECK_MSG(x.dim() == in_dim(),
                 "batch dim " << x.dim() << " != " << in_dim());
  const std::size_t b = x.rows();
  // SIMD backends that vectorise across output lanes read a column-major
  // weight copy; keep it cached in the workspace keyed by the weight
  // version so frozen networks never re-transpose (satellite of ISSUE 6 —
  // this was a per-call O(out·in) cost inside the old AVX2 kernel).
  const bool use_wt = kernel::active_backend().wants_transposed;
  if (use_wt) ensure_transpose_cache(ws);
  ws.pre.resize(layers_.size());
  ws.post.resize(layers_.size() + 1);
  ws.post[0].assign(x);
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    const auto& l = layers_[li];
    ws.pre[li].resize(b, l.out);
    kernel::batch_affine(params_.data() + l.w_off,
                         use_wt ? ws.wt[li].data() : nullptr,
                         params_.data() + l.b_off, l.out, l.in,
                         ws.post[li].data(), b, ws.pre[li].data());
    auto& post = ws.post[li + 1];
    post.resize(b, l.out);
    const double* src = ws.pre[li].data();
    double* dst = post.data();
    const std::size_t nel = b * l.out;
    if (li + 1 < layers_.size()) {
      kernel::tanh_rows(src, nel, dst);
    } else {
      std::copy(src, src + nel, dst);
    }
  }
  IMAP_NCHECK_FINITE_VEC(
      std::span<const double>(ws.post.back().data(), b * out_dim()),
      "Mlp::forward_batch output");
  return ws.post.back();
}

void Mlp::backward_batch(Workspace& ws, const Batch& grad_out) {
  IMAP_CHECK_MSG(ws.post.size() == layers_.size() + 1,
                 "backward_batch without a prior forward_batch on this "
                 "workspace");
  IMAP_CHECK(grad_out.dim() == out_dim());
  IMAP_CHECK(grad_out.rows() == ws.post.back().rows());
  const std::size_t b = grad_out.rows();
  ws.g.assign(grad_out);
  for (std::size_t li = layers_.size(); li-- > 0;) {
    const auto& l = layers_[li];
    kernel::batch_outer_acc(ws.g.data(), ws.post[li].data(), b, l.out, l.in,
                            grads_.data() + l.w_off, grads_.data() + l.b_off);
    if (li == 0) break;  // no caller reads dL/dinput from here
    ws.gin.resize(b, l.in);
    kernel::batch_matvec_t(params_.data() + l.w_off, l.out, l.in, ws.g.data(),
                           b, ws.gin.data());
    kernel::tanh_grad(ws.post[li].data(), b * l.in, ws.gin.data());
    std::swap(ws.g, ws.gin);
  }
  IMAP_NCHECK_FINITE_VEC(grads_, "Mlp::backward_batch gradients");
}

const Batch& Mlp::input_gradient_batch(Workspace& ws,
                                       const Batch& grad_out) const {
  IMAP_CHECK_MSG(ws.post.size() == layers_.size() + 1,
                 "input_gradient_batch without a prior forward_batch on this "
                 "workspace");
  IMAP_CHECK(grad_out.dim() == out_dim());
  IMAP_CHECK(grad_out.rows() == ws.post.back().rows());
  const std::size_t b = grad_out.rows();
  ws.g.assign(grad_out);
  for (std::size_t li = layers_.size(); li-- > 0;) {
    const auto& l = layers_[li];
    ws.gin.resize(b, l.in);
    kernel::batch_matvec_t(params_.data() + l.w_off, l.out, l.in, ws.g.data(),
                           b, ws.gin.data());
    if (li > 0)
      kernel::tanh_grad(ws.post[li].data(), b * l.in, ws.gin.data());
    std::swap(ws.g, ws.gin);
  }
  return ws.g;
}

void Mlp::zero_grad() { std::fill(grads_.begin(), grads_.end(), 0.0); }

void Mlp::save_state(BinaryWriter& w) const {
  w.write_u64(sizes_.size());
  for (auto s : sizes_) w.write_u64(s);
  w.write_vec(params_);
}

void Mlp::load_state(BinaryReader& r) {
  const auto n = r.read_u64();
  IMAP_CHECK_MSG(n == sizes_.size(), "Mlp checkpoint has wrong depth");
  for (auto s : sizes_)
    IMAP_CHECK_MSG(r.read_u64() == s, "Mlp checkpoint has wrong layer sizes");
  auto p = r.read_vec();
  IMAP_CHECK_MSG(p.size() == params_.size(),
                 "Mlp checkpoint has wrong parameter count");
  params_ = std::move(p);
  weight_version_ = next_weight_version();  // cached transposes are stale
}

}  // namespace imap::nn
