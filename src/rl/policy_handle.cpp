#include "rl/policy_handle.h"

#include "common/check.h"

namespace imap::rl {

PolicyHandle PolicyHandle::snapshot(const nn::GaussianPolicy& policy) {
  return PolicyHandle(std::make_shared<const nn::GaussianPolicy>(policy));
}

PolicyHandle PolicyHandle::serving(
    std::shared_ptr<const nn::GaussianPolicy> net, bool quantized) {
  IMAP_CHECK_MSG(net != nullptr, "serving handle needs a network");
  PolicyHandle h(std::move(net));
  if (quantized)
    h.qnet_ = std::make_shared<const nn::QuantizedMlp>(h.net_->net());
  return h;
}

std::vector<double> PolicyHandle::query(const std::vector<double>& obs,
                                        nn::Mlp::Workspace& ws) const {
  if (!net_) return fn_(obs);
  // The input row holds no network state, so one per thread serves every
  // handle.
  thread_local nn::Batch row;
  row.resize(1, obs.size());
  row.set_row(0, obs);
  const nn::Batch& out = query_batch(row, ws);
  return std::vector<double>(out.row(0), out.row(0) + out.dim());
}

std::vector<double> PolicyHandle::query(const std::vector<double>& obs) const {
  thread_local nn::Mlp::Workspace ws;
  return query(obs, ws);
}

const nn::Batch& PolicyHandle::query_batch(const nn::Batch& obs,
                                           nn::Mlp::Workspace& ws) const {
  IMAP_CHECK_MSG(net_ != nullptr, "query_batch on a non-batchable handle");
  if (qnet_) return qnet_->forward_batch(obs, ws);
  return net_->mean_batch(obs, ws);
}

}  // namespace imap::rl
