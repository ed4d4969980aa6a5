#include "nn/adam.h"

#include <cmath>

#include "common/check.h"
#include "nn/kernel_backend.h"
#include "nn/matrix.h"

namespace imap::nn {

Adam::Adam(std::size_t n_params, Options opts)
    : opts_(opts), m_(n_params, 0.0), v_(n_params, 0.0) {}

void Adam::step(std::vector<double>& params,
                const std::vector<double>& grads) {
  IMAP_CHECK(params.size() == m_.size());
  IMAP_CHECK(grads.size() == m_.size());
  ++t_;

  double clip = 1.0;
  if (opts_.max_grad_norm > 0.0) {
    double sq = 0.0;
    for (double g : grads) sq += g * g;
    const double norm = std::sqrt(sq);
    if (norm > opts_.max_grad_norm) clip = opts_.max_grad_norm / norm;
  }

  const kernel::AdamCoeffs c{
      .lr = opts_.lr,
      .beta1 = opts_.beta1,
      .beta2 = opts_.beta2,
      .eps = opts_.eps,
      .bc1 = 1.0 - std::pow(opts_.beta1, static_cast<double>(t_)),
      .bc2 = 1.0 - std::pow(opts_.beta2, static_cast<double>(t_)),
      .clip = clip};
  kernel::adam_step(params.data(), grads.data(), m_.data(), v_.data(),
                    params.size(), c);
  IMAP_NCHECK_FINITE_VEC(params, "adam.params after step");
}

void Adam::save_state(BinaryWriter& w) const {
  w.write_u64(t_);
  w.write_f64(opts_.lr);
  w.write_vec(m_);
  w.write_vec(v_);
}

void Adam::load_state(BinaryReader& r) {
  t_ = r.read_u64();
  opts_.lr = r.read_f64();
  auto m = r.read_vec();
  auto v = r.read_vec();
  IMAP_CHECK_MSG(m.size() == m_.size() && v.size() == v_.size(),
                 "Adam checkpoint has wrong parameter count");
  m_ = std::move(m);
  v_ = std::move(v);
}

}  // namespace imap::nn
