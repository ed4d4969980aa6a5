// Tests for the batched kernel layer (nn/batch.h, Mlp::forward_batch /
// backward_batch and the batched policy/critic APIs):
//  * bitwise parity — every batched result must equal a run of 1-row calls
//    exactly, not approximately (the determinism contract in DESIGN.md);
//  * the Workspace transpose cache follows the weights, not the address;
//  * finite-difference correctness of the batched backward;
//  * the zero-allocation guarantee of the Workspace arena in steady state.
// The end-to-end PPO update is pinned by the golden digests (test_golden).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <vector>

#include "nn/batch.h"
#include "nn/gaussian.h"
#include "nn/mlp.h"

// ---------------------------------------------------------------------------
// Counting allocator: a global operator new override that tallies
// allocations while a test section is armed. Disabled under sanitizers,
// whose own allocator interposition this would fight with.
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define IMAP_TEST_NO_ALLOC_COUNTING 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define IMAP_TEST_NO_ALLOC_COUNTING 1
#endif

namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<long long> g_alloc_count{0};
}  // namespace

#ifndef IMAP_TEST_NO_ALLOC_COUNTING
// GCC pairs new-expressions elsewhere in this TU with these replacements and
// cannot see that the replacement new allocates via malloc, so free() here is
// the correct partner — silence the heuristic.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t sz) {
  if (g_count_allocs.load(std::memory_order_relaxed))
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(sz ? sz : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t sz) {
  if (g_count_allocs.load(std::memory_order_relaxed))
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(sz ? sz : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop
#endif

namespace imap::nn {
namespace {

/// Fill a batch with iid normal rows.
Batch random_batch(std::size_t rows, std::size_t dim, Rng& rng) {
  Batch b(rows, dim);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < dim; ++c) b(r, c) = rng.normal();
  return b;
}

std::vector<double> row_vec(const Batch& b, std::size_t r) {
  return std::vector<double>(b.row(r), b.row(r) + b.dim());
}

/// Row r of `b` as a 1-row batch: the per-sample reference is a run of
/// single-row batched calls, one per row in ascending order.
Batch one_row(const Batch& b, std::size_t r) {
  Batch out(1, b.dim());
  out.set_row(0, row_vec(b, r));
  return out;
}

class MlpBatchParity : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MlpBatchParity, ForwardMatchesPerSampleBitwise) {
  const std::size_t bs = GetParam();
  Rng rng(11);
  Mlp net({5, 16, 8, 3}, rng);
  const Batch x = random_batch(bs, 5, rng);

  Mlp::Workspace ws, ws1;
  const Batch& y = net.forward_batch(x, ws);
  ASSERT_EQ(y.rows(), bs);
  ASSERT_EQ(y.dim(), 3u);
  for (std::size_t r = 0; r < bs; ++r) {
    const Batch& yr = net.forward_batch(one_row(x, r), ws1);
    for (std::size_t c = 0; c < 3; ++c)
      EXPECT_EQ(y(r, c), yr(0, c)) << "row " << r << " col " << c;
  }
}

TEST_P(MlpBatchParity, BackwardMatchesPerSampleBitwise) {
  const std::size_t bs = GetParam();
  Rng rng(13);
  Mlp batched({5, 16, 8, 3}, rng);
  Rng rng2(13);
  Mlp serial({5, 16, 8, 3}, rng2);
  ASSERT_EQ(batched.params(), serial.params());

  const Batch x = random_batch(bs, 5, rng);
  const Batch gout = random_batch(bs, 3, rng);

  Mlp::Workspace ws;
  batched.zero_grad();
  batched.forward_batch(x, ws);
  batched.backward_batch(ws, gout);
  // dL/dinput comes from input_gradient_batch on the same tape.
  const Batch& gin_b = batched.input_gradient_batch(ws, gout);

  serial.zero_grad();
  std::vector<std::vector<double>> gin_s;
  Mlp::Workspace ws1;
  for (std::size_t r = 0; r < bs; ++r) {
    serial.forward_batch(one_row(x, r), ws1);
    serial.backward_batch(ws1, one_row(gout, r));
    gin_s.push_back(
        row_vec(serial.input_gradient_batch(ws1, one_row(gout, r)), 0));
  }

  // Parameter gradients accumulate in the same per-entry order → bitwise.
  ASSERT_EQ(batched.grads().size(), serial.grads().size());
  for (std::size_t i = 0; i < batched.grads().size(); ++i)
    EXPECT_EQ(batched.grads()[i], serial.grads()[i]) << "grad " << i;
  // And so do the input gradients, row by row.
  for (std::size_t r = 0; r < bs; ++r)
    for (std::size_t c = 0; c < 5; ++c)
      EXPECT_EQ(gin_b(r, c), gin_s[r][c]) << "row " << r << " col " << c;
}

TEST_P(MlpBatchParity, InputGradientMatchesPerSampleBitwise) {
  const std::size_t bs = GetParam();
  Rng rng(17);
  Mlp net({4, 12, 2}, rng);
  const Batch x = random_batch(bs, 4, rng);
  const Batch gout = random_batch(bs, 2, rng);

  Mlp::Workspace ws;
  net.forward_batch(x, ws);
  const auto grads_before = net.grads();
  const Batch& gin_b = net.input_gradient_batch(ws, gout);
  EXPECT_EQ(net.grads(), grads_before);  // params untouched

  Mlp::Workspace ws1;
  for (std::size_t r = 0; r < bs; ++r) {
    net.forward_batch(one_row(x, r), ws1);
    const Batch& gin = net.input_gradient_batch(ws1, one_row(gout, r));
    for (std::size_t c = 0; c < 4; ++c) EXPECT_EQ(gin_b(r, c), gin(0, c));
  }
}

INSTANTIATE_TEST_SUITE_P(BatchSizes, MlpBatchParity,
                         ::testing::Values(std::size_t{1}, std::size_t{7},
                                           std::size_t{64}));

// Finite-difference check of backward_batch on the summed loss
// L = Σ_n w_n · out_n: its parameter gradients, and the input gradients
// input_gradient_batch reads from the same tape.
TEST(MlpBatch, BackwardMatchesFiniteDifferences) {
  Rng rng(29);
  Mlp net({4, 8, 3}, rng);
  const std::size_t bs = 6;
  const Batch x = random_batch(bs, 4, rng);
  const Batch w = random_batch(bs, 3, rng);

  Mlp::Workspace ws;
  net.zero_grad();
  net.forward_batch(x, ws);
  net.backward_batch(ws, w);
  const Batch gin = net.input_gradient_batch(ws, w);
  const auto analytic = net.grads();

  const auto loss_at = [&](const Batch& in) {
    double l = 0.0;
    const Batch& out = net.forward_batch(in, ws);
    for (std::size_t r = 0; r < bs; ++r)
      for (std::size_t c = 0; c < 3; ++c) l += w(r, c) * out(r, c);
    return l;
  };
  const auto loss = [&] { return loss_at(x); };
  const double eps = 1e-6;
  // Mutations go through net.params() each time (never a held reference):
  // the accessor bumps the weight version that keys the workspace transpose
  // cache, so every loss() re-forward sees the perturbed weights.
  const std::size_t n_params = net.params().size();
  for (std::size_t i = 0; i < n_params; i += 7) {
    const double save = net.params()[i];
    net.params()[i] = save + eps;
    const double lp = loss();
    net.params()[i] = save - eps;
    const double lm = loss();
    net.params()[i] = save;
    const double fd = (lp - lm) / (2.0 * eps);
    EXPECT_NEAR(analytic[i], fd, 1e-4 * std::max(1.0, std::fabs(fd)))
        << "param " << i;
  }
  // Input gradients dL/dX, every row and column.
  for (std::size_t r = 0; r < bs; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      Batch xp = x, xm = x;
      xp(r, c) += eps;
      xm(r, c) -= eps;
      const double fd = (loss_at(xp) - loss_at(xm)) / (2.0 * eps);
      EXPECT_NEAR(gin(r, c), fd, 1e-4 * std::max(1.0, std::fabs(fd)))
          << "row " << r << " col " << c;
    }
  }
}

TEST(GaussianPolicyBatch, LogProbBatchMatchesPerSample) {
  Rng rng(31);
  GaussianPolicy pol(6, 3, {16, 16}, rng);
  const std::size_t bs = 9;
  const Batch obs = random_batch(bs, 6, rng);
  const Batch act = random_batch(bs, 3, rng);

  std::vector<double> lp, lp1;
  pol.log_prob_batch(obs, act, lp);
  ASSERT_EQ(lp.size(), bs);
  for (std::size_t r = 0; r < bs; ++r) {
    pol.log_prob_batch(one_row(obs, r), one_row(act, r), lp1);
    EXPECT_EQ(lp[r], lp1[0]);
  }
}

TEST(GaussianPolicyBatch, BackwardLogpBatchMatchesPerSampleBitwise) {
  Rng rng(37);
  GaussianPolicy batched(6, 3, {16, 16}, rng);
  Rng rng2(37);
  GaussianPolicy serial(6, 3, {16, 16}, rng2);
  ASSERT_EQ(batched.flat_params(), serial.flat_params());

  const std::size_t bs = 8;
  const Batch obs = random_batch(bs, 6, rng);
  const Batch act = random_batch(bs, 3, rng);
  std::vector<double> coeff(bs);
  for (auto& c : coeff) c = rng.normal();
  coeff[3] = 0.0;  // a clipped-out sample must be an exact no-op

  batched.zero_grad();
  batched.mean_batch(obs);
  batched.backward_logp_batch(act, coeff);

  serial.zero_grad();
  for (std::size_t r = 0; r < bs; ++r) {
    serial.mean_batch(one_row(obs, r));
    serial.backward_logp_batch(one_row(act, r), {coeff[r]});
  }

  EXPECT_EQ(batched.flat_grads(), serial.flat_grads());
}

TEST(ValueNetBatch, ValueAndBackwardMatchPerSampleBitwise) {
  Rng rng(41);
  ValueNet batched(5, {16, 16}, rng);
  Rng rng2(41);
  ValueNet serial(5, {16, 16}, rng2);
  ASSERT_EQ(batched.params(), serial.params());

  const std::size_t bs = 12;
  const Batch obs = random_batch(bs, 5, rng);
  std::vector<double> coeff(bs);
  for (auto& c : coeff) c = rng.normal();

  std::vector<double> v;
  batched.zero_grad();
  batched.value_batch(obs, v);
  batched.backward_batch(coeff);

  serial.zero_grad();
  std::vector<double> v1;
  for (std::size_t r = 0; r < bs; ++r) {
    serial.value_batch(one_row(obs, r), v1);
    EXPECT_EQ(v[r], v1[0]);
    serial.backward_batch({coeff[r]});
  }
  EXPECT_EQ(batched.grads(), serial.grads());
}

// A network built where a freed one lived must not be served the freed
// network's cached weight transposes through a shared workspace. Placement
// new pins both networks to one address.
TEST(MlpBatch, NetworkAtFreedAddressGetsItsOwnTransposes) {
  Rng rng(47);
  const Batch x = random_batch(64, 11, rng);
  alignas(Mlp) unsigned char storage[sizeof(Mlp)];
  Mlp::Workspace shared, fresh;

  Rng ra(1);
  Mlp* a = new (storage) Mlp({11, 64, 64, 3}, ra);
  a->forward_batch(x, shared);
  a->~Mlp();

  Rng rb(2);
  Mlp* b = new (storage) Mlp({11, 64, 64, 3}, rb);
  const Batch got = b->forward_batch(x, shared);
  const Batch& want = b->forward_batch(x, fresh);
  for (std::size_t r = 0; r < 64; ++r)
    for (std::size_t c = 0; c < 3; ++c)
      EXPECT_EQ(got(r, c), want(r, c)) << "row " << r << " col " << c;
  b->~Mlp();
}

// weight_version identifies weights: a copy shares its source's version,
// separately built networks and every mutable access get fresh ones.
TEST(MlpBatch, WeightVersionFollowsTheWeights) {
  Rng rng(53), rng2(53);
  Mlp a({4, 8, 2}, rng);
  Mlp twin({4, 8, 2}, rng2);
  const Mlp copy = a;
  EXPECT_EQ(copy.weight_version(), a.weight_version());
  EXPECT_NE(twin.weight_version(), a.weight_version());
  const auto before = a.weight_version();
  a.params()[0] += 1.0;
  EXPECT_NE(a.weight_version(), before);
  EXPECT_NE(a.weight_version(), twin.weight_version());
  EXPECT_EQ(copy.weight_version(), before);
}

// The Workspace arena must stop allocating once warm: after one forward/
// backward at the high-water batch size, further batched steps (same or
// smaller batch) perform zero heap allocations.
TEST(MlpBatch, SteadyStateForwardBackwardAllocatesNothing) {
#ifdef IMAP_TEST_NO_ALLOC_COUNTING
  GTEST_SKIP() << "allocation counting disabled under sanitizers";
#else
  Rng rng(43);
  Mlp net({17, 64, 64, 6}, rng);
  const Batch x64 = random_batch(64, 17, rng);
  const Batch x7 = random_batch(7, 17, rng);
  const Batch g64 = random_batch(64, 6, rng);
  const Batch g7 = random_batch(7, 6, rng);

  Mlp::Workspace ws;
  // Warm-up: grows every buffer to the high-water mark.
  net.forward_batch(x64, ws);
  net.backward_batch(ws, g64);
  net.forward_batch(x7, ws);
  net.backward_batch(ws, g7);

  g_alloc_count.store(0);
  g_count_allocs.store(true);
  for (int rep = 0; rep < 3; ++rep) {
    net.forward_batch(x64, ws);
    net.backward_batch(ws, g64);
    net.input_gradient_batch(ws, g64);
    net.forward_batch(x7, ws);
    net.backward_batch(ws, g7);
  }
  g_count_allocs.store(false);

  EXPECT_EQ(g_alloc_count.load(), 0)
      << "batched hot path allocated in steady state";
#endif
}

}  // namespace
}  // namespace imap::nn
