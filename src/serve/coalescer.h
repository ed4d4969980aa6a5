#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "nn/batch.h"
#include "serve/metrics.h"
#include "serve/model_cache.h"

namespace imap::serve {

/// The group forward: one `PolicyHandle::query_batch` over rows gathered
/// from many /infer requests for the SAME resident victim snapshot.
///
/// The server's poll loop gathers: each round it groups the single-row
/// /infer requests it read by snapshot identity (the `ServedModel` pointer,
/// so a hot-swapped victim never shares a forward with its predecessor), up
/// to `max_batch` rows, and hands each group here. Nothing waits for rows
/// that have not arrived; a group queued for the pool takes later rounds'
/// rows until a worker starts it. The class itself is stateless.
///
/// Correctness rides the PolicyHandle contract: every query_batch output row
/// is bit-identical to a per-sample query() of that row, in fp64 and int8
/// modes alike. Grouping therefore changes only *when* the kernel runs,
/// never *what* any connection receives.
class Coalescer {
 public:
  struct Options {
    int max_batch = 32;  ///< rows per forward (<= 1: one row per forward)
  };

  /// Multiply-adds up to which the poll loop runs a forward itself: one
  /// this small costs less than a pool hop (DESIGN.md "Serving daemon").
  static constexpr std::uint64_t kInlineMacs = 200'000;

  explicit Coalescer(Options opts, ServeMetrics* metrics = nullptr);

  /// Rows per group, at least 1.
  std::size_t max_batch() const {
    return static_cast<std::size_t>(opts_.max_batch > 1 ? opts_.max_batch : 1);
  }

  /// One forward of `rows` row-major observations through `model`; counts
  /// one forward and its batch size in the metrics. The result lives in a
  /// thread-local workspace until the calling thread's next forward. Throws
  /// CheckError when the model has no network behind it.
  const nn::Batch& forward(const ServedModel& model, const double* obs,
                           std::size_t rows) const;

  /// The one-row case: bit-identical to model->handle.query(obs). Throws
  /// CheckError when `obs` does not match the model width.
  std::vector<double> infer(const std::shared_ptr<const ServedModel>& model,
                            const std::vector<double>& obs) const;

  /// True when `rows` × `model`'s multiply-adds per row <= kInlineMacs.
  static bool runs_inline(const ServedModel& model, std::size_t rows);

 private:
  Options opts_;
  ServeMetrics* metrics_;
};

}  // namespace imap::serve
