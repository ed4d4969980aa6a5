#include "core/knn.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <utility>
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

/// Order-preserving unsigned image of a non-NaN double: ascending images
/// are ascending values (-0 lands just below +0).
std::uint64_t sort_bits(double x) {
  const auto b = std::bit_cast<std::uint64_t>(x);
  return b >> 63 ? ~b : b | (std::uint64_t{1} << 63);
}

/// Stable LSD radix sort of `v` (indices into `bits`) by bits[v[i]], one
/// byte per pass; a pass whose byte is the same in every entry is skipped.
void radix_sort(std::vector<std::uint32_t>& v,
                const std::vector<std::uint64_t>& bits) {
  std::array<std::array<std::size_t, 256>, 8> count{};
  for (const std::uint64_t b : bits)
    for (std::size_t d = 0; d < 8; ++d) ++count[d][(b >> (8 * d)) & 0xff];
  std::vector<std::uint32_t> tmp(v.size());
  for (std::size_t d = 0; d < 8; ++d) {
    auto& c = count[d];
    if (std::find(c.begin(), c.end(), v.size()) != c.end()) continue;
    std::size_t sum = 0;
    for (auto& x : c) sum += std::exchange(x, sum);
    for (const std::uint32_t i : v) tmp[c[(bits[i] >> (8 * d)) & 0xff]++] = i;
    v.swap(tmp);
  }
}

}  // namespace

KnnBuffer::KnnBuffer(std::size_t dim, std::size_t capacity, std::size_t k,
                     Rng rng)
    : dim_(dim), capacity_(capacity), k_(k), rng_(rng) {
  IMAP_CHECK(dim_ > 0);
  IMAP_CHECK(capacity_ >= k_ && k_ >= 1);
  IMAP_CHECK(k_ <= nn::kernel::kKnnMaxK);
  IMAP_CHECK(capacity_ <= std::numeric_limits<std::uint32_t>::max());
  blocks_.reserve(blocked_size(capacity_, dim_));
}

void KnnBuffer::add_rows(const double* rows, std::size_t n) {
  bool changed = false;
  for (std::size_t i = 0; i < n; ++i) {
    ++total_;
    std::size_t slot = size_;
    if (size_ < capacity_) {
      if (size_ % kKnnLanes == 0)
        blocks_.resize(blocks_.size() + kKnnLanes * dim_, 0.0);
      // A new slot takes the next free position.
      pos_of_.push_back(static_cast<std::uint32_t>(slot));
      ++size_;
    } else {
      // Reservoir sampling: replace a uniform slot with probability
      // cap/total, wherever the last sort put it.
      slot = static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<int>(total_) - 1));
      if (slot >= capacity_) continue;
    }
    // One column of the position's block: stride kKnnLanes between features.
    double* lane = blocks_.data() + knn_blocked_index(pos_of_[slot], 0, dim_);
    for (std::size_t c = 0; c < dim_; ++c)
      lane[c * kKnnLanes] = rows[i * dim_ + c];
    changed = true;
  }
  if (changed) sort_rows();
}

void KnnBuffer::add(const double* s) { add_rows(s, 1); }

void KnnBuffer::add(const std::vector<double>& s) {
  IMAP_CHECK(s.size() == dim_);
  IMAP_NCHECK_FINITE_VEC(s, "KnnBuffer::add state");
  add(s.data());
}

void KnnBuffer::sort_rows() {
  const auto at = [&](std::size_t p, std::size_t c) -> double& {
    return blocks_[knn_blocked_index(p, c, dim_)];
  };
  // One pass, block by block (each column's lanes contiguous): which rows
  // hold a non-finite value, and each column's range over its finite values.
  std::vector<unsigned char> finite(size_, 1);
  std::vector<double> lo(dim_, std::numeric_limits<double>::infinity());
  std::vector<double> hi(dim_, -std::numeric_limits<double>::infinity());
  for (std::size_t b = 0; b * kKnnLanes < size_; ++b) {
    const std::size_t lanes = std::min(kKnnLanes, size_ - b * kKnnLanes);
    for (std::size_t c = 0; c < dim_; ++c) {
      const double* col = blocks_.data() + (b * dim_ + c) * kKnnLanes;
      for (std::size_t l = 0; l < lanes; ++l) {
        if (!std::isfinite(col[l])) {
          finite[b * kKnnLanes + l] = 0;
          continue;
        }
        lo[c] = std::min(lo[c], col[l]);
        hi[c] = std::max(hi[c], col[l]);
      }
    }
  }
  // Any axis keeps the scan exact. A query's window on an axis holds the
  // rows within its k-th distance there, so the axis with the lowest mean
  // density at the stored rows prunes the most: over kAxisBins equal bins of
  // the finite range, the estimate is Σ count² / range (constant factors
  // dropped). Only columns whose range is positive and finite are scored;
  // when none is, the axis is column 0.
  constexpr std::size_t kAxisBins = 16;
  const auto scored = [&](std::size_t c) {
    const double range = hi[c] - lo[c];
    return range > 0.0 && range < std::numeric_limits<double>::infinity();
  };
  std::vector<double> count(dim_ * kAxisBins, 0.0);
  for (std::size_t b = 0; b * kKnnLanes < size_; ++b) {
    const std::size_t lanes = std::min(kKnnLanes, size_ - b * kKnnLanes);
    for (std::size_t c = 0; c < dim_; ++c) {
      if (!scored(c)) continue;
      const double scale = static_cast<double>(kAxisBins) / (hi[c] - lo[c]);
      const double* col = blocks_.data() + (b * dim_ + c) * kKnnLanes;
      for (std::size_t l = 0; l < lanes; ++l)
        if (finite[b * kKnnLanes + l]) {
          const auto bin = static_cast<std::size_t>((col[l] - lo[c]) * scale);
          count[c * kAxisBins + std::min(bin, kAxisBins - 1)] += 1.0;
        }
    }
  }
  axis_ = 0;
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < dim_; ++c) {
    if (!scored(c)) continue;
    double sum_sq = 0.0;
    for (std::size_t i = 0; i < kAxisBins; ++i)
      sum_sq += count[c * kAxisBins + i] * count[c * kAxisBins + i];
    if (sum_sq / (hi[c] - lo[c]) < best) {
      best = sum_sq / (hi[c] - lo[c]);
      axis_ = c;
    }
  }
  // The all-finite rows ascend by (key, slot). The rest, which can never be
  // a neighbour, take the key +inf, above every finite key, so they follow
  // in slot order. The radix sort is stable and starts from slot order, so
  // equal keys stay in slot order.
  std::vector<std::uint64_t> bits(size_);
  live_ = 0;
  for (std::size_t slot = 0; slot < size_; ++slot) {
    const std::size_t p = pos_of_[slot];
    live_ += finite[p];
    bits[slot] = sort_bits(finite[p] ? at(p, axis_)
                                     : std::numeric_limits<double>::infinity());
  }
  std::vector<std::uint32_t> from(size_);
  std::iota(from.begin(), from.end(), std::uint32_t{0});
  radix_sort(from, bits);
  // Position p takes slot from[p]: from[p] becomes that row's current
  // position, and the slot's position becomes p (each slot is visited once).
  // Then walk each cycle of the permutation with one row in hand, marking
  // placed positions.
  for (std::size_t p = 0; p < size_; ++p)
    from[p] = std::exchange(pos_of_[from[p]], static_cast<std::uint32_t>(p));
  constexpr std::uint32_t kPlaced = std::numeric_limits<std::uint32_t>::max();
  std::vector<double> held(dim_);
  for (std::size_t p = 0; p < size_; ++p) {
    if (from[p] == kPlaced) continue;
    if (from[p] == p) {
      from[p] = kPlaced;
      continue;
    }
    for (std::size_t c = 0; c < dim_; ++c) held[c] = at(p, c);
    std::size_t dst = p;
    while (true) {
      const std::size_t src = from[dst];
      from[dst] = kPlaced;
      if (src == p) {
        for (std::size_t c = 0; c < dim_; ++c) at(dst, c) = held[c];
        break;
      }
      for (std::size_t c = 0; c < dim_; ++c) at(dst, c) = at(src, c);
      dst = src;
    }
  }
}

void KnnBuffer::knn_distance_sq_batch(const double* queries, std::size_t n,
                                      std::size_t stride, double* out) const {
  IMAP_CHECK(stride >= dim_);
  nn::kernel::active_backend().knn_scan(blocks_.data(), live_, dim_, axis_,
                                        k_, queries, n, stride, out);
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
  pos_of_.clear();
  axis_ = 0;
  live_ = 0;
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
  // Gather the blocked rows into the row-major wire format, in slot order.
  std::vector<double> rows(size_ * dim_);
  for (std::size_t r = 0; r < size_; ++r)
    for (std::size_t c = 0; c < dim_; ++c)
      rows[r * dim_ + c] = blocks_[knn_blocked_index(pos_of_[r], c, dim_)];
  w.write_vec(rows);
}

void KnnBuffer::load_state(BinaryReader& r) {
  // Everything is read and checked before the buffer changes, so a corrupt
  // image leaves it as it was.
  IMAP_CHECK_MSG(r.read_u64() == dim_ && r.read_u64() == capacity_ &&
                     r.read_u64() == k_,
                 "KNN checkpoint has wrong geometry");
  Rng rng = rng_;
  rng.load_state(r);
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
  rng_ = rng;
  // Scatter the row-major wire rows into the blocked layout, slot i at
  // position i (within the capacity the constructor reserved), then sort.
  blocks_.assign(blocked_size(size, dim_), 0.0);
  pos_of_.resize(size);
  for (std::size_t i = 0; i < size; ++i) {
    for (std::size_t c = 0; c < dim_; ++c)
      blocks_[knn_blocked_index(i, c, dim_)] = rows[i * dim_ + c];
    pos_of_[i] = static_cast<std::uint32_t>(i);
  }
  size_ = size;
  total_ = total;
  sort_rows();
}

}  // namespace imap::core
