#include "nn/quant.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <vector>

#include "common/check.h"
#include "nn/kernel_backend.h"
#include "nn/matrix.h"

namespace imap::nn {

namespace {

std::int16_t clamp_code(long v) {
  return static_cast<std::int16_t>(std::clamp(v, -127L, 127L));
}

/// max |x| over a float row, computed on the absolute bit patterns: for
/// non-NaN floats, |a| <= |b| iff (bits(a) & 0x7fffffff) <= (bits(b) &
/// 0x7fffffff), and an integer max-reduction is exact and associative — so
/// the loop vectorises without reordering concerns, unlike an fp max chain.
float abs_max(const float* x, std::size_t n) {
  std::uint32_t m = 0;
  for (std::size_t c = 0; c < n; ++c)
    m = std::max(m, std::bit_cast<std::uint32_t>(x[c]) & 0x7fffffffu);
  return std::bit_cast<float>(m);
}

/// Per-sample symmetric int8 quantization of the B fp64 network-input rows
/// into zero-padded pair-aligned int16 codes (row stride 2·in_pairs). The
/// obs widths are small (≤ 32), so this stays scalar here; the hot hidden
/// activations go through kernel::quant_act instead. Float precision
/// throughout: the codes only carry ~7 bits, so the extra double rounding
/// buys nothing, and float lrintf/converts vectorise.
void quantize_input_rows(const double* x, std::size_t b, std::size_t in,
                         std::size_t in_pairs, std::int16_t* qx, float* qscale,
                         float* xf_scratch) {
  const std::size_t stride = 2 * in_pairs;
  for (std::size_t n = 0; n < b; ++n) {
    const double* xn = x + n * in;
    std::int16_t* qn = qx + n * stride;
    for (std::size_t c = 0; c < in; ++c)
      xf_scratch[c] = static_cast<float>(xn[c]);
    const float amax = abs_max(xf_scratch, in);
    if (amax > 0.0f) {
      const float inv = 127.0f / amax;
      for (std::size_t c = 0; c < in; ++c)
        qn[c] = clamp_code(std::lrintf(xf_scratch[c] * inv));
      qscale[n] = amax / 127.0f;
    } else {
      for (std::size_t c = 0; c < in; ++c) qn[c] = 0;
      qscale[n] = 0.0f;
    }
    for (std::size_t c = in; c < stride; ++c) qn[c] = 0;
  }
}

}  // namespace

QuantizedMlp::QuantizedMlp(const Mlp& net)
    : in_dim_(net.in_dim()),
      out_dim_(net.out_dim()),
      built_version_(net.weight_version()) {
  const auto& sizes = net.sizes();
  const auto& params = net.params();
  // Rebuild the layer views from the architecture (offsets mirror the Mlp
  // constructor: W then b per layer, flat-packed in order).
  std::size_t off = 0;
  for (std::size_t i = 0; i + 1 < sizes.size(); ++i) {
    QLayer q;
    q.in = sizes[i];
    q.out = sizes[i + 1];
    q.in_pairs = (q.in + 1) / 2;
    const double* w = params.data() + off;
    off += q.in * q.out;
    const double* b = params.data() + off;
    off += q.out;

    q.row_scale.resize(q.out);
    q.bias.resize(q.out);
    q.wq_packed.assign(2 * q.in_pairs * q.out, 0);
    for (std::size_t r = 0; r < q.out; ++r) {
      const double* row = w + r * q.in;
      double amax = 0.0;
      for (std::size_t c = 0; c < q.in; ++c)
        amax = std::max(amax, std::abs(row[c]));
      q.bias[r] = static_cast<float>(b[r]);
      if (amax > 0.0) {
        const double inv = 127.0 / amax;
        for (std::size_t c = 0; c < q.in; ++c) {
          const std::int16_t code = clamp_code(std::lrint(row[c] * inv));
          q.wq_packed[kernel::quant_packed_index(r, c, q.out, q.in_pairs)] =
              code;
        }
        q.row_scale[r] = static_cast<float>(amax / 127.0);
      } else {
        q.row_scale[r] = 0.0f;
      }
    }
    max_pairs_ = std::max(max_pairs_, q.in_pairs);
    max_out_ = std::max(max_out_, q.out);
    layers_.push_back(std::move(q));
  }
  IMAP_CHECK(off == params.size());
}

const Batch& QuantizedMlp::forward_batch(const Batch& x,
                                         Mlp::Workspace& ws) const {
  IMAP_CHECK_MSG(x.dim() == in_dim_,
                 "batch dim " << x.dim() << " != " << in_dim_);
  const std::size_t b = x.rows();
  // Grow-only scratch in the caller's workspace: zero allocations once the
  // high-water batch size is reached, same contract as the fp64 arena.
  if (ws.qx.size() < b * 2 * max_pairs_) ws.qx.resize(b * 2 * max_pairs_);
  if (ws.qscale.size() < b) ws.qscale.resize(b);
  if (ws.qh.size() < b * max_out_) ws.qh.resize(b * max_out_);
  if (ws.qh2.size() < b * max_out_) ws.qh2.resize(b * max_out_);

  // Double→float staging row for the network input (hidden activations are
  // already float). Function-scope thread_local: no per-call allocation.
  thread_local std::vector<float> xf;
  if (xf.size() < in_dim_) xf.resize(in_dim_);
  quantize_input_rows(x.data(), b, in_dim_, layers_.front().in_pairs,
                      ws.qx.data(), ws.qscale.data(), xf.data());
  float* cur = ws.qh.data();
  float* alt = ws.qh2.data();
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    const QLayer& l = layers_[li];
    kernel::quant_affine(l.wq_packed.data(), l.row_scale.data(),
                         l.bias.data(), l.out, l.in_pairs, ws.qx.data(),
                         ws.qscale.data(), b, cur);
    if (li + 1 < layers_.size()) {
      // Fused fast_tanh + requantize through the active kernel backend
      // (bit-identical across backends — see nn/kernel_backend.h).
      kernel::quant_act(cur, b, l.out, layers_[li + 1].in_pairs,
                        ws.qx.data(), ws.qscale.data());
      std::swap(cur, alt);
    }
  }
  ws.qout.resize(b, out_dim_);
  const float* src = cur;
  double* dst = ws.qout.data();
  const std::size_t nel = b * out_dim_;
  for (std::size_t i = 0; i < nel; ++i)
    dst[i] = static_cast<double>(src[i]);
  return ws.qout;
}

}  // namespace imap::nn
