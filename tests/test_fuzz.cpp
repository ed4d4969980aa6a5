// Randomised property tests: fuzz the core numerical components against
// independent reference implementations.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "core/knn.h"
#include "nn/gaussian.h"
#include "rl/gae.h"
#include "rl/policy_handle.h"

namespace imap {
namespace {

// ---------------------------------------------------------------- GAE

/// Naive O(n²) reference: A_t = Σ_{l≥0} (γλ)^l δ_{t+l} within the segment,
/// computed forward from the definition.
rl::GaeResult naive_gae(const std::vector<double>& r,
                        const std::vector<double>& v,
                        const std::vector<unsigned char>& done,
                        const std::vector<unsigned char>& boundary,
                        const std::vector<double>& bootstrap, double gamma,
                        double lambda) {
  const std::size_t n = r.size();
  rl::GaeResult out;
  out.advantages.assign(n, 0.0);
  out.returns.assign(n, 0.0);

  // Precompute per-step deltas with the correct next-value per position.
  std::vector<double> delta(n);
  std::size_t bi = 0;
  std::vector<double> next_v(n);
  std::vector<bool> terminal(n);
  for (std::size_t t = 0; t < n; ++t) {
    if (boundary[t]) {
      next_v[t] = done[t] ? 0.0 : bootstrap[bi];
      terminal[t] = true;
      ++bi;
    } else {
      next_v[t] = v[t + 1];
      terminal[t] = false;
    }
    delta[t] = r[t] + gamma * next_v[t] * (done[t] ? 0.0 : 1.0) - v[t];
  }
  for (std::size_t t = 0; t < n; ++t) {
    double acc = 0.0, w = 1.0;
    for (std::size_t l = t; l < n; ++l) {
      acc += w * delta[l];
      if (terminal[l]) break;
      w *= gamma * lambda;
    }
    out.advantages[t] = acc;
    out.returns[t] = acc + v[t];
  }
  return out;
}

TEST(Fuzz, GaeMatchesNaiveReference) {
  Rng rng(101);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform_int(0, 40));
    std::vector<double> r(n), v(n);
    std::vector<unsigned char> done(n, 0), boundary(n, 0);
    std::vector<double> bootstrap;
    for (std::size_t t = 0; t < n; ++t) {
      r[t] = rng.normal(0.0, 2.0);
      v[t] = rng.normal(0.0, 2.0);
      if (t + 1 == n || rng.bernoulli(0.15)) {
        boundary[t] = 1;
        done[t] = rng.bernoulli(0.5) ? 1 : 0;
        bootstrap.push_back(done[t] ? 0.0 : rng.normal(0.0, 2.0));
      }
    }
    const double gamma = rng.uniform(0.5, 1.0);
    const double lambda = rng.uniform(0.5, 1.0);

    const auto fast =
        rl::compute_gae(r, v, done, boundary, bootstrap, gamma, lambda);
    const auto slow =
        naive_gae(r, v, done, boundary, bootstrap, gamma, lambda);
    for (std::size_t t = 0; t < n; ++t) {
      ASSERT_NEAR(fast.advantages[t], slow.advantages[t], 1e-9)
          << "trial " << trial << " t=" << t;
      ASSERT_NEAR(fast.returns[t], slow.returns[t], 1e-9);
    }
  }
}

// ---------------------------------------------------------------- KNN

TEST(Fuzz, KnnMatchesBruteForceUnderInterleavedOps) {
  Rng rng(202);
  for (int trial = 0; trial < 16; ++trial) {
    const std::size_t dim =
        1 + static_cast<std::size_t>(rng.uniform_int(0, 16));
    const std::size_t k = 1 + static_cast<std::size_t>(rng.uniform_int(0, 5));
    // Even trials stay below capacity (the buffer stores everything); odd
    // trials overfill a small buffer so reservoir replacement runs.
    const std::size_t cap =
        trial % 2 == 0 ? 256
                       : k + static_cast<std::size_t>(rng.uniform_int(0, 40));
    Rng buf_rng = rng.split(static_cast<std::uint64_t>(trial));
    core::KnnBuffer buf(dim, cap, k, buf_rng);
    // The mirror replays the reservoir rule on a copy of the buffer's
    // stream: once full, the t-th add replaces slot j ~ U[0, t) if j < cap.
    Rng mirror_rng = buf_rng;
    std::vector<std::vector<double>> mirror;
    std::size_t total = 0;

    for (int op = 0; op < 150; ++op) {
      if (mirror.empty() || rng.bernoulli(0.7)) {
        auto s = rng.normal_vec(dim, 0.0, 3.0);
        buf.add(s);
        ++total;
        if (mirror.size() < cap) {
          mirror.push_back(std::move(s));
        } else {
          const auto j = static_cast<std::size_t>(
              mirror_rng.uniform_int(0, static_cast<int>(total) - 1));
          if (j < cap) mirror[j] = std::move(s);
        }
        ASSERT_EQ(buf.size(), mirror.size());
        ASSERT_EQ(buf.total_added(), total);
        continue;
      }
      // A batch of queries at a padded stride, each checked against the
      // brute force and, bitwise, against its single-query result.
      const std::size_t nq =
          1 + static_cast<std::size_t>(rng.uniform_int(0, 8));
      const std::size_t stride = dim + 2;
      std::vector<double> queries(nq * stride, 0.0);
      for (std::size_t i = 0; i < nq; ++i)
        for (std::size_t c = 0; c < dim; ++c)
          queries[i * stride + c] = rng.normal(0.0, 3.0);
      std::vector<double> got(nq);
      buf.knn_distance_sq_batch(queries.data(), nq, stride, got.data());
      for (std::size_t i = 0; i < nq; ++i) {
        const double* q = queries.data() + i * stride;
        std::vector<double> dists;
        for (const auto& p : mirror) {
          double sq = 0;
          for (std::size_t c = 0; c < dim; ++c)
            sq += (p[c] - q[c]) * (p[c] - q[c]);
          dists.push_back(std::sqrt(sq));
        }
        ASSERT_EQ(got[i], buf.knn_distance_sq(q)) << "query " << i;
        ASSERT_EQ(std::sqrt(got[i]), buf.knn_distance(q)) << "query " << i;
        if (dists.size() < k) {
          ASSERT_TRUE(std::isinf(got[i]));
        } else {
          std::nth_element(dists.begin(),
                           dists.begin() + static_cast<std::ptrdiff_t>(k - 1),
                           dists.end());
          ASSERT_NEAR(std::sqrt(got[i]), dists[k - 1], 1e-9)
              << "trial " << trial << " query " << i;
        }
      }
    }
  }
}

// ------------------------------------------------------- Gaussian policy

TEST(Fuzz, LogProbConsistentWithSampling) {
  // Monte-Carlo check: E[exp(logp)] integrates to ≈ 1 over a grid for 1-D.
  Rng rng(303);
  for (int trial = 0; trial < 5; ++trial) {
    const double mean = rng.normal(0.0, 1.0);
    const double ls = rng.uniform(-1.0, 0.5);
    double integral = 0.0;
    const double lo = mean - 6.0 * std::exp(ls), hi = mean + 6.0 * std::exp(ls);
    const int steps = 2000;
    const double h = (hi - lo) / steps;
    for (int i = 0; i < steps; ++i) {
      const double x = lo + (i + 0.5) * h;
      integral += std::exp(nn::diag_gaussian::log_prob(&x, &mean, &ls, 1)) * h;
    }
    EXPECT_NEAR(integral, 1.0, 1e-3);
  }
}

TEST(Fuzz, KlNonNegativeAndZeroIffEqual) {
  Rng rng(404);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t d = 1 + static_cast<std::size_t>(rng.uniform_int(0, 4));
    const auto m1 = rng.normal_vec(d), m2 = rng.normal_vec(d);
    const auto s1 = rng.uniform_vec(d, -1.0, 0.5);
    const auto s2 = rng.uniform_vec(d, -1.0, 0.5);
    EXPECT_GE(
        nn::diag_gaussian::kl(m1.data(), s1.data(), m2.data(), s2.data(), d),
        -1e-12);
    EXPECT_NEAR(
        nn::diag_gaussian::kl(m1.data(), s1.data(), m1.data(), s1.data(), d),
        0.0, 1e-12);
  }
}

TEST(Fuzz, PolicyRoundTripThroughFlatParams) {
  Rng rng(505);
  for (int trial = 0; trial < 10; ++trial) {
    nn::GaussianPolicy a(4, 2, {8, 8}, rng);
    nn::GaussianPolicy b(4, 2, {8, 8}, rng);
    b.set_flat_params(a.flat_params());
    const auto obs = rng.normal_vec(4);
    EXPECT_EQ(rl::PolicyHandle::snapshot(a).query(obs),
              rl::PolicyHandle::snapshot(b).query(obs));
    EXPECT_EQ(a.log_std(), b.log_std());
  }
}

}  // namespace
}  // namespace imap
