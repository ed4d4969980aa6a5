#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/serialize.h"

namespace imap::core {

/// K-nearest-neighbour state-density estimator (Sec. 5.2, "State Density
/// Approximation"): d(s) ≈ 1 / ‖s − s*_D‖ where s*_D is the k-th nearest
/// stored state. Nonparametric and forgetting-free, unlike RND/ICM-style
/// prediction-error estimators — which is why the paper uses it.
///
/// Capacity is bounded; once full, *reservoir sampling* keeps the stored set
/// a uniform subsample of everything ever added, so the union buffer B still
/// represents the full historical mixture ρ^α = Σ_i d^{π_i^α}.
class KnnBuffer {
 public:
  KnnBuffer(std::size_t dim, std::size_t capacity, std::size_t k, Rng rng);

  /// Add n row-major states (dim() values each), one reservoir step per
  /// row exactly as n calls of add() would take, then re-sort the stored
  /// rows once.
  void add_rows(const double* rows, std::size_t n);
  /// A batch of one: it re-sorts the whole buffer, so bulk adds go through
  /// add_rows.
  void add(const double* s);
  void add(const std::vector<double>& s);

  /// Squared k-th-neighbour distance of n queries: query i is the dim()
  /// values at queries + i·stride (stride ≥ dim()), its result goes to
  /// out[i]; +inf when fewer than k states are stored. One windowed scan
  /// of the sorted rows through the active kernel backend's knn_scan, with
  /// no internal threading and no mutation — callers split large query sets
  /// across threads. Bit-identical to the brute force on every backend and
  /// for any split of the queries.
  void knn_distance_sq_batch(const double* queries, std::size_t n,
                             std::size_t stride, double* out) const;

  /// Euclidean distance from `s` to its k-th nearest stored neighbour (a
  /// batch of one). Returns +inf when fewer than k states are stored.
  double knn_distance(const double* s) const;
  double knn_distance(const std::vector<double>& s) const;

  /// Squared k-th-neighbour distance — the sqrt-free inner kernel behind
  /// knn_distance(); preferred where the caller applies its own transform
  /// (density() uses this to keep the row scan sqrt-free).
  double knn_distance_sq(const double* s) const;
  double knn_distance_sq(const std::vector<double>& s) const;

  /// KNN density estimate 1 / (knn_distance + eps); 0 when under-filled.
  double density(const std::vector<double>& s) const;

  std::size_t size() const { return size_; }
  std::size_t dim() const { return dim_; }
  std::size_t k() const { return k_; }
  std::size_t total_added() const { return total_; }
  bool empty() const { return size_ == 0; }
  void clear();

  /// Serialize the stored rows, reservoir counters and sampling stream so a
  /// restored buffer continues the exact reservoir sequence. The rows go on
  /// the wire row-major in slot order, independent of the in-memory layout.
  void save_state(BinaryWriter& w) const;
  void load_state(BinaryReader& r);

 private:
  std::size_t dim_;
  std::size_t capacity_;
  std::size_t k_;
  Rng rng_;
  /// Re-sort the stored rows by the column where they are least dense:
  /// rows with a non-finite value (never anyone's neighbour) go past live_,
  /// the rest ascend by that column (ties by slot). Moves rows in place.
  void sort_rows();

  /// The one copy of the rows: size_ rows in the blocked [block][col][lane]
  /// layout of nn::kernel::knn_blocked_index, by position; unused lanes of
  /// the last block are 0. Positions [0, live_) hold the all-finite rows in
  /// ascending order of column axis_.
  std::vector<double> blocks_;
  /// Position of each logical slot (the reservoir's and the wire format's
  /// row index).
  std::vector<std::uint32_t> pos_of_;
  std::size_t axis_ = 0;
  std::size_t live_ = 0;
  std::size_t size_ = 0;
  std::size_t total_ = 0;
};

}  // namespace imap::core
