#include "core/knn.h"

#include <cmath>
#include <limits>
#include <vector>

#include "common/check.h"
#include "nn/kernel_backend.h"

namespace imap::core {

namespace {

using nn::kernel::kKnnLanes;
using nn::kernel::knn_blocked_index;

/// Doubles held by `rows` rows in the blocked layout (whole blocks).
std::size_t blocked_size(std::size_t rows, std::size_t dim) {
  return (rows + kKnnLanes - 1) / kKnnLanes * kKnnLanes * dim;
}

}  // namespace

KnnBuffer::KnnBuffer(std::size_t dim, std::size_t capacity, std::size_t k,
                     Rng rng)
    : dim_(dim), capacity_(capacity), k_(k), rng_(rng) {
  IMAP_CHECK(dim_ > 0);
  IMAP_CHECK(capacity_ >= k_ && k_ >= 1);
  IMAP_CHECK(k_ <= nn::kernel::kKnnMaxK);
  blocks_.reserve(blocked_size(capacity_, dim_));
}

void KnnBuffer::add(const double* s) {
  ++total_;
  std::size_t slot = size_;
  if (size_ < capacity_) {
    if (size_ % kKnnLanes == 0)
      blocks_.resize(blocks_.size() + kKnnLanes * dim_, 0.0);
    ++size_;
  } else {
    // Reservoir sampling: replace a uniform slot with probability cap/total.
    slot = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<int>(total_) - 1));
    if (slot >= capacity_) return;
  }
  // One column of the slot's block: stride kKnnLanes between features.
  double* lane = blocks_.data() + knn_blocked_index(slot, 0, dim_);
  for (std::size_t c = 0; c < dim_; ++c) lane[c * kKnnLanes] = s[c];
}

void KnnBuffer::add(const std::vector<double>& s) {
  IMAP_CHECK(s.size() == dim_);
  IMAP_NCHECK_FINITE_VEC(s, "KnnBuffer::add state");
  add(s.data());
}

void KnnBuffer::knn_distance_sq_batch(const double* queries, std::size_t n,
                                      std::size_t stride, double* out) const {
  IMAP_CHECK(stride >= dim_);
  nn::kernel::active_backend().knn_scan(blocks_.data(), size_, dim_, k_,
                                        queries, n, stride, out);
  // +Inf is the legitimate "fewer than k neighbours" sentinel, so the guard
  // only excludes NaN and negative distances.
  for (std::size_t i = 0; i < n; ++i)
    IMAP_NCHECK_BOUNDS(out[i], 0.0, std::numeric_limits<double>::infinity(),
                       "knn.distance_sq");
}

double KnnBuffer::knn_distance_sq(const double* s) const {
  double sq = 0.0;
  knn_distance_sq_batch(s, 1, dim_, &sq);
  return sq;
}

double KnnBuffer::knn_distance(const double* s) const {
  return std::sqrt(knn_distance_sq(s));
}

double KnnBuffer::knn_distance(const std::vector<double>& s) const {
  IMAP_CHECK(s.size() == dim_);
  return knn_distance(s.data());
}

double KnnBuffer::knn_distance_sq(const std::vector<double>& s) const {
  IMAP_CHECK(s.size() == dim_);
  return knn_distance_sq(s.data());
}

double KnnBuffer::density(const std::vector<double>& s) const {
  const double sq = knn_distance_sq(s);
  if (!std::isfinite(sq)) return 0.0;
  // One scalar sqrt per query; the row scan itself stays sqrt-free.
  return 1.0 / (std::sqrt(sq) + 1e-6);
}

void KnnBuffer::clear() {
  blocks_.clear();
  size_ = 0;
  total_ = 0;
}

void KnnBuffer::save_state(BinaryWriter& w) const {
  w.write_u64(dim_);
  w.write_u64(capacity_);
  w.write_u64(k_);
  rng_.save_state(w);
  w.write_u64(size_);
  w.write_u64(total_);
  // Gather the blocked rows into the row-major wire format.
  std::vector<double> rows(size_ * dim_);
  for (std::size_t r = 0; r < size_; ++r)
    for (std::size_t c = 0; c < dim_; ++c)
      rows[r * dim_ + c] = blocks_[knn_blocked_index(r, c, dim_)];
  w.write_vec(rows);
}

void KnnBuffer::load_state(BinaryReader& r) {
  IMAP_CHECK_MSG(r.read_u64() == dim_ && r.read_u64() == capacity_ &&
                     r.read_u64() == k_,
                 "KNN checkpoint has wrong geometry");
  rng_.load_state(r);
  const std::size_t size = r.read_u64();
  const std::size_t total = r.read_u64();
  // Bound the row count before it multiplies dim_: an unchecked size can
  // wrap size·dim around to match a short row vector. Every buffer add()
  // builds has size == min(total, capacity).
  IMAP_CHECK_MSG(size <= capacity_ && size <= total &&
                     (size == capacity_ || size == total),
                 "corrupt KNN checkpoint: " << size << " rows, " << total
                                            << " added, capacity "
                                            << capacity_);
  const std::vector<double> rows = r.read_vec();
  IMAP_CHECK_MSG(rows.size() == size * dim_, "corrupt KNN checkpoint");
  // Scatter the row-major wire rows into the blocked layout (within the
  // capacity the constructor reserved).
  blocks_.assign(blocked_size(size, dim_), 0.0);
  for (std::size_t i = 0; i < size; ++i)
    for (std::size_t c = 0; c < dim_; ++c)
      blocks_[knn_blocked_index(i, c, dim_)] = rows[i * dim_ + c];
  size_ = size;
  total_ = total;
}

}  // namespace imap::core
