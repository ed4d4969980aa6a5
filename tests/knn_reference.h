#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

namespace imap::testing {

/// Brute-force k-th smallest squared distance of query `q` to n row-major
/// rows: each row's sq = 0, then sq += d·d for c = 0..dim-1 with d = x − q
/// (separate sub/mul/add; the test target is built with -ffp-contract=off),
/// and the k-th smallest value a strict-`<` top-k list starting at +inf
/// keeps: NaN and +inf never enter it, so fewer than k finite values give
/// +inf. The window scan and KnnBuffer must return exactly these bits.
inline double knn_reference_kth_sq(const double* rows, std::size_t n,
                                   std::size_t dim, const double* q,
                                   std::size_t k) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> sq;
  for (std::size_t r = 0; r < n; ++r) {
    double s = 0.0;
    for (std::size_t c = 0; c < dim; ++c) {
      const double d = rows[r * dim + c] - q[c];
      s += d * d;
    }
    if (s < kInf) sq.push_back(s);
  }
  if (sq.size() < k) return kInf;
  std::nth_element(sq.begin(), sq.begin() + static_cast<std::ptrdiff_t>(k - 1),
                   sq.end());
  return sq[k - 1];
}

}  // namespace imap::testing
