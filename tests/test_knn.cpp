#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "core/knn.h"
#include "knn_reference.h"

namespace imap::core {
namespace {

TEST(Knn, ExactDistancesSmallSet) {
  Rng rng(3);
  KnnBuffer buf(1, 16, 1, rng);
  for (const double x : {0.0, 1.0, 3.0}) buf.add(std::vector<double>{x});
  EXPECT_DOUBLE_EQ(buf.knn_distance(std::vector<double>{0.5}), 0.5);
  EXPECT_DOUBLE_EQ(buf.knn_distance(std::vector<double>{3.0}), 0.0);
  EXPECT_DOUBLE_EQ(buf.knn_distance(std::vector<double>{10.0}), 7.0);
}

TEST(Knn, KthNearestNotFirst) {
  Rng rng(3);
  KnnBuffer buf(1, 16, 3, rng);
  for (const double x : {0.0, 1.0, 2.0, 10.0}) buf.add(std::vector<double>{x});
  // 3rd nearest of 0.1: distances {0.1, 0.9, 1.9, 9.9} → 1.9.
  EXPECT_DOUBLE_EQ(buf.knn_distance(std::vector<double>{0.1}), 1.9);
}

TEST(Knn, UnderfilledReportsInfinityAndZeroDensity) {
  Rng rng(3);
  KnnBuffer buf(2, 16, 3, rng);
  buf.add(std::vector<double>{0.0, 0.0});
  EXPECT_TRUE(std::isinf(buf.knn_distance(std::vector<double>{1.0, 1.0})));
  EXPECT_DOUBLE_EQ(buf.density({1.0, 1.0}), 0.0);
}

TEST(Knn, DensityInverseOfDistance) {
  Rng rng(3);
  KnnBuffer buf(1, 8, 1, rng);
  buf.add(std::vector<double>{0.0});
  EXPECT_NEAR(buf.density({2.0}), 0.5, 1e-5);
  EXPECT_GT(buf.density({0.1}), buf.density({1.0}));
}

TEST(Knn, MatchesBruteForceOnRandomData) {
  Rng rng(7);
  const std::size_t dim = 5, n = 200, k = 3;
  KnnBuffer buf(dim, n, k, rng.split(1));
  std::vector<std::vector<double>> data;
  for (std::size_t i = 0; i < n; ++i) {
    data.push_back(rng.normal_vec(dim));
    buf.add(data.back());
  }
  for (int trial = 0; trial < 20; ++trial) {
    const auto q = rng.normal_vec(dim);
    std::vector<double> dists;
    for (const auto& p : data) {
      double sq = 0;
      for (std::size_t c = 0; c < dim; ++c) sq += (p[c] - q[c]) * (p[c] - q[c]);
      dists.push_back(std::sqrt(sq));
    }
    std::nth_element(dists.begin(), dists.begin() + (k - 1), dists.end());
    EXPECT_NEAR(buf.knn_distance(q), dists[k - 1], 1e-9);
  }
}

TEST(Knn, ReservoirKeepsCapacityAndTotal) {
  Rng rng(9);
  KnnBuffer buf(2, 50, 3, rng);
  for (int i = 0; i < 500; ++i) buf.add(rng.normal_vec(2));
  EXPECT_EQ(buf.size(), 50u);
  EXPECT_EQ(buf.total_added(), 500u);
}

TEST(Knn, ReservoirIsApproximatelyUniform) {
  // Feed two phases with distinguishable distributions; a correct reservoir
  // keeps ≈ half from each, while naive ring-replacement would keep only
  // the second phase.
  Rng rng(11);
  KnnBuffer buf(1, 200, 1, rng);
  for (int i = 0; i < 1000; ++i) buf.add(std::vector<double>{0.0});
  for (int i = 0; i < 1000; ++i) buf.add(std::vector<double>{100.0});
  // Query near 0: if any phase-1 points survived, distance ≈ 0.
  EXPECT_LT(buf.knn_distance(std::vector<double>{0.0}), 1.0);
  EXPECT_LT(buf.knn_distance(std::vector<double>{100.0}), 1.0);
}

TEST(Knn, AddRowsMatchesRowByRowAdds) {
  // One add_rows call takes the reservoir steps of n single adds: the same
  // stream draws, the same slots replaced, so the checkpoints (rows in slot
  // order) are byte-identical, before and after the buffer overflows.
  constexpr std::size_t dim = 4, cap = 32;
  Rng data(21);
  const auto rows = data.normal_vec(100 * dim);
  KnnBuffer batched(dim, cap, 3, Rng(5)), single(dim, cap, 3, Rng(5));
  for (const std::size_t n : {std::size_t{20}, std::size_t{30}, std::size_t{50}}) {
    const std::size_t first = batched.total_added();
    batched.add_rows(rows.data() + first * dim, n);
    for (std::size_t i = first; i < first + n; ++i)
      single.add(rows.data() + i * dim);
    BinaryWriter a, b;
    batched.save_state(a);
    single.save_state(b);
    EXPECT_EQ(a.buffer(), b.buffer()) << "after " << first + n << " rows";
  }
}

TEST(Knn, HugeRangesAndConstantColumnsStayExact) {
  // Column 0 spans ±1.5e308 (its range overflows to +inf), column 1 is
  // constant (range 0), column 2 is ordinary: the sort column is then the
  // last, and queries still match the reference bitwise.
  constexpr std::size_t dim = 3, n = 40;
  Rng rng(17);
  std::vector<double> rows(n * dim);
  for (std::size_t r = 0; r < n; ++r) {
    rows[r * dim] = (r % 2 == 0 ? 1.5e308 : -1.5e308) * rng.uniform(0.5, 1.0);
    rows[r * dim + 1] = 2.0;
    rows[r * dim + 2] = rng.normal(0.0, 1.0);
  }
  KnnBuffer buf(dim, n, 3, Rng(5));
  buf.add_rows(rows.data(), n);
  for (std::size_t i = 0; i < n; i += 7) {
    const double* q = rows.data() + i * dim;
    EXPECT_EQ(buf.knn_distance_sq(q),
              testing::knn_reference_kth_sq(rows.data(), n, dim, q, 3))
        << "query " << i;
  }
}

TEST(Knn, ClearResets) {
  Rng rng(3);
  KnnBuffer buf(1, 8, 1, rng);
  buf.add(std::vector<double>{1.0});
  buf.clear();
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.total_added(), 0u);
}

TEST(Knn, RejectsBadConfig) {
  Rng rng(3);
  EXPECT_THROW(KnnBuffer(0, 8, 1, rng), CheckError);
  EXPECT_THROW(KnnBuffer(2, 2, 3, rng), CheckError);  // capacity < k
}

TEST(Knn, RejectsWrongDim) {
  Rng rng(3);
  KnnBuffer buf(3, 8, 1, rng);
  EXPECT_THROW(buf.add(std::vector<double>{1.0}), CheckError);
}

}  // namespace
}  // namespace imap::core
