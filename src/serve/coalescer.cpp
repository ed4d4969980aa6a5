#include "serve/coalescer.h"

#include <algorithm>

#include "common/check.h"

namespace imap::serve {

Coalescer::Coalescer(Options opts, ServeMetrics* metrics)
    : opts_(opts), metrics_(metrics) {}

const nn::Batch& Coalescer::forward(const ServedModel& model,
                                    const double* obs,
                                    std::size_t rows) const {
  IMAP_CHECK_MSG(model.handle.batched(),
                 "coalescer needs a network-backed model");
  // Workspace and gather buffer are thread_local: after warm-up a thread
  // issues forwards with zero steady-state allocations.
  thread_local nn::Mlp::Workspace ws;
  thread_local nn::Batch in;
  in.resize(rows, model.handle.obs_dim());
  std::copy(obs, obs + rows * in.dim(), in.data());
  const nn::Batch& out = model.handle.query_batch(in, ws);
  if (metrics_ != nullptr) {
    metrics_->coalesced_batches.inc();
    metrics_->batch_size.record(rows);
  }
  return out;
}

std::vector<double> Coalescer::infer(
    const std::shared_ptr<const ServedModel>& model,
    const std::vector<double>& obs) const {
  IMAP_CHECK_MSG(model != nullptr && model->handle.batched(),
                 "coalescer needs a network-backed model");
  IMAP_CHECK_MSG(obs.size() == model->handle.obs_dim(),
                 "observation width " << obs.size() << " != model width "
                                      << model->handle.obs_dim());
  const nn::Batch& out = forward(*model, obs.data(), 1);
  return {out.row(0), out.row(0) + model->handle.act_dim()};
}

bool Coalescer::runs_inline(const ServedModel& model, std::size_t rows) {
  std::uint64_t macs = 0;  // per row
  const auto& sizes = model.policy->net().sizes();
  for (std::size_t l = 0; l + 1 < sizes.size(); ++l)
    macs += static_cast<std::uint64_t>(sizes[l]) * sizes[l + 1];
  return rows * macs <= kInlineMacs;
}

}  // namespace imap::serve
