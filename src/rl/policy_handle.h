#pragma once

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "nn/gaussian.h"
#include "nn/quant.h"

namespace imap::rl {

/// Deterministic state→action mapping for truly opaque callables (scripted
/// or random attacks). Networks are wrapped in a PolicyHandle instead.
using ActionFn =
    std::function<std::vector<double>(const std::vector<double>&)>;

/// A frozen deployed policy — the one way code queries a frozen network
/// (victims, trained adversaries, the serving daemon's models). Two shapes,
/// one call surface:
///
///  * an opaque ActionFn — the fully black-box case; answerable only one
///    observation at a time;
///  * a frozen GaussianPolicy network, answered with its deterministic mean.
///    It additionally supports batched queries through a caller-owned
///    workspace (query_batch), letting the vectorized rollout engine answer
///    all lockstep slots with one kernel call.
///
/// Both constructors are implicit so random/null/gradient attacks can pass
/// plain functions, and shared networks their pointer, wherever a handle is
/// expected.
///
/// Serving mode is fixed at construction: the network constructor and
/// snapshot() always serve fp64; serving(net, true) is the one int8 route
/// (a QuantizedMlp built once from the frozen weights). Per-sample query()
/// is a one-row query_batch in either mode, so the per-sample and batched
/// answers are bit-identical to each other.
class PolicyHandle {
 public:
  PolicyHandle() = default;
  // NOLINTNEXTLINE(google-explicit-constructor)
  PolicyHandle(ActionFn fn) : fn_(std::move(fn)) {}
  /// fp64 handle over a shared frozen network.
  // NOLINTNEXTLINE(google-explicit-constructor)
  PolicyHandle(std::shared_ptr<const nn::GaussianPolicy> net)
      : net_(std::move(net)) {}

  /// Deep-copied frozen snapshot of `policy` (fp64): training can continue
  /// on the original while the handle keeps serving the captured parameters.
  static PolicyHandle snapshot(const nn::GaussianPolicy& policy);

  /// Explicit serving-mode handle: `quantized` selects the int8 path.
  static PolicyHandle serving(std::shared_ptr<const nn::GaussianPolicy> net,
                              bool quantized);

  explicit operator bool() const { return net_ != nullptr || fn_ != nullptr; }

  /// True when the handle exposes a network and so supports query_batch.
  bool batched() const { return net_ != nullptr; }

  /// The backing network, or nullptr for opaque-function handles. Used to
  /// verify that every slot of a VecEnv queries the SAME frozen victim
  /// before merging their queries into one batch.
  const nn::GaussianPolicy* net() const { return net_.get(); }

  /// True when this handle serves through the int8 quantized path.
  bool quantized() const { return qnet_ != nullptr; }

  /// Network I/O widths (0 for opaque-function handles, which carry no
  /// shape). The serving layer validates request rows against these before
  /// a malformed observation can reach a kernel.
  std::size_t obs_dim() const { return net_ ? net_->obs_dim() : 0; }
  std::size_t act_dim() const { return net_ ? net_->act_dim() : 0; }

  /// Per-sample query through a caller-owned workspace: a one-row
  /// query_batch for network handles, the function for opaque ones. Callers
  /// in a loop keep one workspace per handle, so the network's transpose
  /// cache stays warm.
  std::vector<double> query(const std::vector<double>& obs,
                            nn::Mlp::Workspace& ws) const;

  /// Per-sample query on a thread-local workspace — for occasional callers
  /// with no loop to own a workspace. Bit-identical to the overload above.
  std::vector<double> query(const std::vector<double>& obs) const;

  /// Batched mean query through a caller-owned workspace. Each output row is
  /// bit-identical to query() on that row — in fp64 and quantized modes
  /// alike. Requires batched(); the returned reference lives in `ws` until
  /// the next batched call on it.
  const nn::Batch& query_batch(const nn::Batch& obs,
                               nn::Mlp::Workspace& ws) const;

 private:
  ActionFn fn_;
  std::shared_ptr<const nn::GaussianPolicy> net_;
  std::shared_ptr<const nn::QuantizedMlp> qnet_;
};

}  // namespace imap::rl
