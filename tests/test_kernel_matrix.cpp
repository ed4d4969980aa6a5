// Generated per-(kernel, backend, shape) parity matrix for the multi-backend
// kernel layer (nn/kernel_backend.h). A macro table of shapes — spanning
// batch/in/out of 1, odd values, lane multiples, and large blocks — expands
// into one ctest case per cell, pinning every compiled backend against the
// scalar reference: exact equality for the fp64 kernels (the determinism
// contract), exact equality for the int8 kernel too (integer accumulation is
// associative and the dequant chain is fixed). Backends that are not
// compiled in or not runnable on this CPU skip their cells, so the matrix is
// portable across build hosts.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "nn/kernel_backend.h"
#include "nn/matrix.h"
#include "knn_reference.h"

namespace {

using imap::Rng;
namespace kernel = imap::nn::kernel;

// Seed folds the shape so every cell runs distinct data.
Rng shaped_rng(std::size_t in, std::size_t out, std::size_t batch) {
  return Rng(1000003 * in + 1009 * out + batch);
}

std::vector<double> randn_vec(std::size_t n, Rng& rng) {
  std::vector<double> v(n);
  for (auto& x : v) x = rng.normal(0.0, 1.0);
  return v;
}

std::vector<double> transpose_of(const std::vector<double>& w, std::size_t out,
                                 std::size_t in) {
  std::vector<double> wt(in * out);
  for (std::size_t r = 0; r < out; ++r)
    for (std::size_t c = 0; c < in; ++c) wt[c * out + r] = w[r * in + c];
  return wt;
}

// nullptr when the cell should run; otherwise the skip reason.
const kernel::KernelBackend* lookup(const std::string& name,
                                    std::string& skip_reason) {
  const kernel::KernelBackend* be = kernel::find_backend(name);
  if (be == nullptr) {
    skip_reason = name + " backend not compiled into this binary";
    return nullptr;
  }
  if (!be->supported()) {
    skip_reason = name + " backend not supported by this CPU";
    return nullptr;
  }
  return be;
}

void run_affine_cell(const std::string& backend, std::size_t in,
                     std::size_t out, std::size_t batch) {
  std::string why;
  const auto* be = lookup(backend, why);
  if (be == nullptr) GTEST_SKIP() << why;
  Rng rng = shaped_rng(in, out, batch);
  const auto w = randn_vec(out * in, rng);
  const auto b = randn_vec(out, rng);
  const auto x = randn_vec(batch * in, rng);
  const auto wt = transpose_of(w, out, in);

  // Reference: the per-sample affine chain, one row at a time.
  std::vector<double> ref(batch * out);
  for (std::size_t n = 0; n < batch; ++n)
    kernel::affine(w.data(), b.data(), out, in, x.data() + n * in,
                   ref.data() + n * out);

  std::vector<double> got(batch * out, 0.0);
  be->batch_affine(w.data(), nullptr, b.data(), out, in, x.data(), batch,
                   got.data());
  for (std::size_t i = 0; i < ref.size(); ++i)
    ASSERT_EQ(ref[i], got[i]) << "uncached wt, element " << i;

  // The cached-transpose entry must produce the same bits.
  std::vector<double> got_wt(batch * out, 0.0);
  be->batch_affine(w.data(), wt.data(), b.data(), out, in, x.data(), batch,
                   got_wt.data());
  for (std::size_t i = 0; i < ref.size(); ++i)
    ASSERT_EQ(ref[i], got_wt[i]) << "cached wt, element " << i;

  // Null bias is part of the kernel contract (it means bias 0).
  std::vector<double> ref0(batch * out), got0(batch * out, 0.0);
  for (std::size_t n = 0; n < batch; ++n)
    kernel::affine(w.data(), nullptr, out, in, x.data() + n * in,
                   ref0.data() + n * out);
  be->batch_affine(w.data(), wt.data(), nullptr, out, in, x.data(), batch,
                   got0.data());
  for (std::size_t i = 0; i < ref0.size(); ++i)
    ASSERT_EQ(ref0[i], got0[i]) << "null bias, element " << i;
}

void run_matvec_t_cell(const std::string& backend, std::size_t in,
                       std::size_t out, std::size_t batch) {
  std::string why;
  const auto* be = lookup(backend, why);
  if (be == nullptr) GTEST_SKIP() << why;
  Rng rng = shaped_rng(in, out, batch);
  const auto w = randn_vec(out * in, rng);
  const auto g = randn_vec(batch * out, rng);

  std::vector<double> ref(batch * in, 0.0);
  for (std::size_t n = 0; n < batch; ++n)
    kernel::matvec_t_acc(w.data(), out, in, g.data() + n * out,
                         ref.data() + n * in);

  std::vector<double> got(batch * in, 0.0);
  be->batch_matvec_t(w.data(), out, in, g.data(), batch, got.data());
  for (std::size_t i = 0; i < ref.size(); ++i)
    ASSERT_EQ(ref[i], got[i]) << "element " << i;
}

void run_outer_acc_cell(const std::string& backend, std::size_t in,
                        std::size_t out, std::size_t batch) {
  std::string why;
  const auto* be = lookup(backend, why);
  if (be == nullptr) GTEST_SKIP() << why;
  Rng rng = shaped_rng(in, out, batch);
  const auto g = randn_vec(batch * out, rng);
  const auto x = randn_vec(batch * in, rng);
  const auto dw0 = randn_vec(out * in, rng);  // nonzero accumulator start
  const auto db0 = randn_vec(out, rng);

  std::vector<double> ref_dw = dw0, ref_db = db0;
  for (std::size_t n = 0; n < batch; ++n) {
    kernel::outer_acc(ref_dw.data(), out, in, g.data() + n * out,
                      x.data() + n * in, 1.0);
    for (std::size_t r = 0; r < out; ++r) ref_db[r] += g[n * out + r];
  }

  std::vector<double> dw = dw0, db = db0;
  be->batch_outer_acc(g.data(), x.data(), batch, out, in, dw.data(),
                      db.data());
  for (std::size_t i = 0; i < ref_dw.size(); ++i)
    ASSERT_EQ(ref_dw[i], dw[i]) << "dw element " << i;
  for (std::size_t r = 0; r < out; ++r)
    ASSERT_EQ(ref_db[r], db[r]) << "db element " << r;
}

void run_quant_cell(const std::string& backend, std::size_t in,
                    std::size_t out, std::size_t batch) {
  std::string why;
  const auto* be = lookup(backend, why);
  if (be == nullptr) GTEST_SKIP() << why;
  if (be->quant_affine == nullptr)
    GTEST_SKIP() << backend << " has no int8 kernel (dispatch uses scalar)";
  Rng rng = shaped_rng(in, out, batch);
  const std::size_t in_pairs = (in + 1) / 2;

  // Random int8 codes in the packed layouts the kernel consumes; the last
  // pair zero-pads odd widths exactly like QuantizedMlp's builder.
  auto code = [&rng]() {
    return static_cast<std::int16_t>(rng.uniform_int(-127, 127));
  };
  std::vector<std::int16_t> wq(2 * in_pairs * out, 0);
  for (std::size_t r = 0; r < out; ++r)
    for (std::size_t c = 0; c < in; ++c)
      wq[kernel::quant_packed_index(r, c, out, in_pairs)] = code();
  std::vector<std::int16_t> xq(batch * 2 * in_pairs, 0);
  for (std::size_t n = 0; n < batch; ++n)
    for (std::size_t c = 0; c < in; ++c) xq[n * 2 * in_pairs + c] = code();
  std::vector<float> row_scale(out), bias(out), xscale(batch);
  for (auto& s : row_scale)
    s = static_cast<float>(rng.uniform(1e-4, 2e-2));
  for (auto& v : bias) v = static_cast<float>(rng.normal(0.0, 0.5));
  for (auto& s : xscale) s = static_cast<float>(rng.uniform(1e-4, 2e-2));

  std::vector<float> ref(batch * out, 0.0f), got(batch * out, 0.0f);
  kernel::scalar_backend().quant_affine(wq.data(), row_scale.data(),
                                        bias.data(), out, in_pairs, xq.data(),
                                        xscale.data(), batch, ref.data());
  be->quant_affine(wq.data(), row_scale.data(), bias.data(), out, in_pairs,
                   xq.data(), xscale.data(), batch, got.data());
  for (std::size_t i = 0; i < ref.size(); ++i)
    ASSERT_EQ(ref[i], got[i]) << "element " << i;
}

void run_quant_act_cell(const std::string& backend, std::size_t /*in*/,
                        std::size_t out, std::size_t batch) {
  std::string why;
  const auto* be = lookup(backend, why);
  if (be == nullptr) GTEST_SKIP() << why;
  if (be->quant_act == nullptr)
    GTEST_SKIP() << backend
                 << " has no fused activation kernel (dispatch uses scalar)";
  Rng rng = shaped_rng(out, out, batch);
  const std::size_t out_pairs = (out + 1) / 2;
  const std::size_t stride = 2 * out_pairs;

  // Pre-activations spanning the tanh linear and saturated regions; one
  // all-zero row (when the batch allows) exercises the amax == 0 branch.
  std::vector<float> h0(batch * out);
  for (auto& v : h0) v = static_cast<float>(rng.normal(0.0, 2.0));
  if (batch > 1)
    for (std::size_t c = 0; c < out; ++c) h0[out + c] = 0.0f;

  std::vector<float> ref_h = h0, got_h = h0;
  std::vector<std::int16_t> ref_q(batch * stride, -1), got_q(batch * stride,
                                                             -1);
  std::vector<float> ref_s(batch, -1.0f), got_s(batch, -1.0f);
  kernel::scalar_backend().quant_act(ref_h.data(), batch, out, out_pairs,
                                     ref_q.data(), ref_s.data());
  be->quant_act(got_h.data(), batch, out, out_pairs, got_q.data(),
                got_s.data());
  for (std::size_t i = 0; i < ref_h.size(); ++i)
    ASSERT_EQ(ref_h[i], got_h[i]) << "tanh element " << i;
  for (std::size_t i = 0; i < ref_q.size(); ++i)
    ASSERT_EQ(ref_q[i], got_q[i]) << "code element " << i;
  for (std::size_t n = 0; n < batch; ++n)
    ASSERT_EQ(ref_s[n], got_s[n]) << "scale row " << n;
}

// Row sets of a KnnScan cell: Gaussian rows with duplicates, clustered
// integer-grid rows (duplicate rows, equal sort keys, many exact ties at the
// k-th distance), and Gaussian rows with NaN / ±inf planted in the sort
// column and in the others.
enum class KnnRows { Gaussian, Clustered, NonFinite };

std::vector<double> knn_rows(KnnRows kind, std::size_t n, std::size_t dim,
                             std::size_t axis, Rng& rng) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> rows(n * dim);
  if (kind == KnnRows::Clustered) {
    // Three centres 8 apart on every column, offsets in {-1, 0, 1}.
    for (std::size_t r = 0; r < n; ++r) {
      const double centre = 8.0 * static_cast<double>(rng.uniform_int(0, 2));
      for (std::size_t c = 0; c < dim; ++c)
        rows[r * dim + c] =
            centre + static_cast<double>(rng.uniform_int(-1, 1));
    }
    return rows;
  }
  for (auto& x : rows) x = rng.normal(0.0, 1.0);
  // Duplicate rows tie at the k-th rank.
  for (std::size_t dup : {n / 2, n - 1})
    for (std::size_t c = 0; c < dim; ++c) rows[dup * dim + c] = rows[c];
  if (kind == KnnRows::NonFinite) {
    // Rows 1-3 get NaN, +inf, -inf in the sort column, rows 4-6 in the
    // next column.
    const double plant[] = {kNaN, kInf, -kInf};
    for (std::size_t p = 0; p < 6 && 1 + p < n; ++p)
      rows[(1 + p) * dim + (axis + p / 3) % dim] = plant[p % 3];
  }
  return rows;
}

// One KnnScan cell: for each row set and sort column, lay the rows out as
// the kernel contract allows (rows with a NaN key past the scanned range,
// the rest ascending by key, ±inf keys at the ends), scan a batch of
// queries and compare every result bitwise with the reference chain over
// all n rows.
void run_knn_scan_cell(const std::string& backend, std::size_t n,
                       std::size_t dim, std::size_t k) {
  std::string why;
  const auto* be = lookup(backend, why);
  if (be == nullptr) GTEST_SKIP() << why;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  Rng rng = shaped_rng(n, dim, k);
  for (const KnnRows kind :
       {KnnRows::Gaussian, KnnRows::Clustered, KnnRows::NonFinite})
    for (const std::size_t axis : {std::size_t{0}, dim / 2, dim - 1}) {
      const auto rows = knn_rows(kind, n, dim, axis, rng);
      std::vector<std::size_t> order;
      for (std::size_t r = 0; r < n; ++r)
        if (!std::isnan(rows[r * dim + axis])) order.push_back(r);
      std::stable_sort(order.begin(), order.end(),
                       [&](std::size_t a, std::size_t b) {
                         return rows[a * dim + axis] < rows[b * dim + axis];
                       });
      const std::size_t scanned = order.size();
      for (std::size_t r = 0; r < n; ++r)
        if (std::isnan(rows[r * dim + axis])) order.push_back(r);
      // Blocked layout; the unused lanes of the last block stay 0.
      std::vector<double> blocks((n + kernel::kKnnLanes - 1) /
                                     kernel::kKnnLanes * kernel::kKnnLanes *
                                     dim,
                                 0.0);
      for (std::size_t p = 0; p < n; ++p)
        for (std::size_t c = 0; c < dim; ++c)
          blocks[kernel::knn_blocked_index(p, c, dim)] =
              rows[order[p] * dim + c];

      // Queries at a stride wider than dim whose gap holds NaN the kernel
      // must never read: two tiles of four plus singles. Query 0 equals
      // stored row 0 (and its duplicates); query 1 is the zero vector, which
      // an unmasked padding lane would match at distance 0; in clustered
      // sets queries sit on the grid. The last three hold NaN in the sort
      // column, +inf in another column and -inf in the sort column.
      constexpr std::size_t nq = 11;
      const std::size_t stride = dim + 3;
      std::vector<double> q(nq * stride, kNaN);
      for (std::size_t i = 0; i < nq; ++i)
        for (std::size_t c = 0; c < dim; ++c)
          q[i * stride + c] =
              i == 0 ? rows[c]
              : i == 1 ? 0.0
              : kind == KnnRows::Clustered
                  ? static_cast<double>(rng.uniform_int(-1, 9))
                  : rng.normal(0.0, 1.0);
      q[(nq - 3) * stride + axis] = kNaN;
      q[(nq - 2) * stride + (axis + 1) % dim] = kInf;
      q[(nq - 1) * stride + axis] = -kInf;

      std::vector<double> got(nq, -1.0);
      be->knn_scan(blocks.data(), scanned, dim, axis, k, q.data(), nq, stride,
                   got.data());
      for (std::size_t i = 0; i < nq; ++i) {
        const double want = imap::testing::knn_reference_kth_sq(
            rows.data(), n, dim, q.data() + i * stride, k);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(want),
                  std::bit_cast<std::uint64_t>(got[i]))
            << "rows " << static_cast<int>(kind) << " axis " << axis
            << " query " << i << ": want " << want << ", got " << got[i];
      }
    }
}

// --- tanh_rows ------------------------------------------------------------

// NaN ⇔ NaN (payloads are not part of the contract), every other value
// bitwise — so ±0 compare by sign too.
void expect_same_tanh(double ref, double got, std::size_t i, double x) {
  if (std::isnan(ref)) {
    ASSERT_TRUE(std::isnan(got)) << "element " << i << " x=" << x;
    return;
  }
  ASSERT_EQ(std::bit_cast<std::uint64_t>(ref),
            std::bit_cast<std::uint64_t>(got))
      << "element " << i << " x=" << x << " ref=" << ref << " got=" << got;
}

// Edge inputs the vector bodies must treat like the scalar one: signed
// zeros, infinities, NaN, subnormals, the 0.625 branch switch and the point
// where tanh rounds to 1.
const std::vector<double>& tanh_specials() {
  static const std::vector<double> v = {
      0.0,
      -0.0,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::denorm_min(),
      -1e-310,
      std::numeric_limits<double>::min(),
      0.625,
      -std::nextafter(0.625, 0.0),
      19.0615,
      -20.0,
      1e300};
  return v;
}

// Every compiled backend against the scalar reference at n = `n` (vector
// bodies plus their scalar tails), out of place and in place.
void run_tanh_rows_cell(const std::string& backend, std::size_t n) {
  std::string why;
  const auto* be = lookup(backend, why);
  if (be == nullptr) GTEST_SKIP() << why;
  if (be->tanh_rows == nullptr)
    GTEST_SKIP() << backend << " has no tanh kernel (dispatch uses scalar)";
  Rng rng = shaped_rng(n, 1, 1);
  std::vector<double> x(n);
  const auto& sp = tanh_specials();
  // Specials at every third slot; the rest alternate between the small
  // (|x| < 0.625) and the exp branch.
  for (std::size_t i = 0; i < n; ++i)
    x[i] = i % 3 == 1   ? sp[(i / 3) % sp.size()]
           : i % 2 == 0 ? rng.normal(0.0, 0.3)
                        : rng.normal(0.0, 4.0);
  std::vector<double> ref(n, -7.0), got(n, -7.0);
  kernel::scalar_backend().tanh_rows(x.data(), n, ref.data());
  be->tanh_rows(x.data(), n, got.data());
  std::vector<double> inplace = x;
  be->tanh_rows(inplace.data(), n, inplace.data());
  for (std::size_t i = 0; i < n; ++i) {
    expect_same_tanh(ref[i], got[i], i, x[i]);
    expect_same_tanh(ref[i], inplace[i], i, x[i]);
  }
}

// Distance in representable doubles between two finite values, counted
// across zero (the sign-magnitude bits mapped onto one ordered line).
std::int64_t ulp_distance(double a, double b) {
  const auto key = [](double v) {
    const auto i = std::bit_cast<std::int64_t>(v);
    return i < 0 ? std::numeric_limits<std::int64_t>::min() - i : i;
  };
  const std::int64_t d = key(a) - key(b);
  return d < 0 ? -d : d;
}

// ≤ 2 ulp from std::tanh (the es_test testTanh pattern: a dense generated
// sweep with a bound in units of the format's epsilon): a seeded sweep over
// [-25, 25], log-spaced magnitudes down to the subnormals, 2000 neighbours
// on each side of the 0.625 switch, and the run up to saturation.
void run_tanh_accuracy(const std::string& backend) {
  std::string why;
  const auto* be = lookup(backend, why);
  if (be == nullptr) GTEST_SKIP() << why;
  if (be->tanh_rows == nullptr)
    GTEST_SKIP() << backend << " has no tanh kernel (dispatch uses scalar)";
  std::vector<double> x;
  Rng rng(20241);
  for (int i = 0; i < 400000; ++i) x.push_back(rng.uniform(-25.0, 25.0));
  for (double m = 1e-320; m < 30.0; m *= 1.01) {
    x.push_back(m);
    x.push_back(-m);
  }
  for (double edge : {0.625, -0.625}) {
    double lo = edge, hi = edge;
    for (int i = 0; i < 2000; ++i) {
      lo = std::nextafter(lo, 0.0);
      hi = std::nextafter(hi, 2.0 * edge);
      x.push_back(lo);
      x.push_back(hi);
    }
  }
  for (double v = 18.0; v <= 21.0; v += 1.0 / 1024.0) {
    x.push_back(v);
    x.push_back(-v);
  }
  std::vector<double> y(x.size());
  be->tanh_rows(x.data(), x.size(), y.data());
  std::int64_t worst = 0;
  double worst_x = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const std::int64_t d = ulp_distance(y[i], std::tanh(x[i]));
    if (d > worst) {
      worst = d;
      worst_x = x[i];
    }
  }
  EXPECT_LE(worst, 2) << "worst at x=" << worst_x << " over " << x.size()
                      << " points";
}

// The contract's edge cases, each run through a full vector body (16 copies)
// and through the scalar tail (n = 1).
void run_tanh_edge_cases(const std::string& backend) {
  std::string why;
  const auto* be = lookup(backend, why);
  if (be == nullptr) GTEST_SKIP() << why;
  if (be->tanh_rows == nullptr)
    GTEST_SKIP() << backend << " has no tanh kernel (dispatch uses scalar)";
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double sub = std::numeric_limits<double>::denorm_min();
  const auto tanh_of = [&](double v, std::size_t n) {
    std::vector<double> in(n, v), out(n, -7.0);
    be->tanh_rows(in.data(), n, out.data());
    for (std::size_t i = 1; i < n; ++i)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(out[0]),
                std::bit_cast<std::uint64_t>(out[i]))
          << "lane " << i;
    return out[0];
  };
  for (std::size_t n : {std::size_t{16}, std::size_t{1}}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    EXPECT_EQ(tanh_of(0.0, n), 0.0);
    EXPECT_FALSE(std::signbit(tanh_of(0.0, n)));
    EXPECT_EQ(tanh_of(-0.0, n), 0.0);
    EXPECT_TRUE(std::signbit(tanh_of(-0.0, n)));
    EXPECT_EQ(tanh_of(inf, n), 1.0);
    EXPECT_EQ(tanh_of(-inf, n), -1.0);
    EXPECT_TRUE(std::isnan(tanh_of(nan, n)));
    EXPECT_TRUE(std::isnan(tanh_of(-nan, n)));
    for (double v : {sub, -sub, 1e-310, -3.3e-309,
                     std::numeric_limits<double>::min(), 1e-200})
      EXPECT_EQ(std::bit_cast<std::uint64_t>(tanh_of(v, n)),
                std::bit_cast<std::uint64_t>(v))
          << "x=" << v;
    EXPECT_EQ(tanh_of(19.1, n), 1.0);
    EXPECT_EQ(tanh_of(-1e300, n), -1.0);
  }
}

#define IMAP_TANH_SIZE_LIST(X) \
  X(N1, 1)                     \
  X(N7, 7)                     \
  X(N8, 8)                     \
  X(N9, 9)                     \
  X(N15, 15)                   \
  X(N16, 16)                   \
  X(N17, 17)                   \
  X(N1000, 1000)

#define IMAP_TANH_CELLS(backend)                       \
  TEST(KernelMatrix_##backend, TanhRowsWithinTwoUlp) { \
    run_tanh_accuracy(#backend);                       \
  }                                                    \
  TEST(KernelMatrix_##backend, TanhRowsEdgeCases) {    \
    run_tanh_edge_cases(#backend);                     \
  }

#define IMAP_TANH_CELL(backend, tag, n_)          \
  TEST(KernelMatrix_##backend, TanhRows_##tag) {  \
    run_tanh_rows_cell(#backend, n_);             \
  }

IMAP_TANH_CELLS(scalar)
IMAP_TANH_CELLS(avx2)
IMAP_TANH_CELLS(avx512)
IMAP_TANH_CELLS(neon)

#define IMAP_TANH_AVX2(tag, n_) IMAP_TANH_CELL(avx2, tag, n_)
IMAP_TANH_SIZE_LIST(IMAP_TANH_AVX2)

#define IMAP_TANH_AVX512(tag, n_) IMAP_TANH_CELL(avx512, tag, n_)
IMAP_TANH_SIZE_LIST(IMAP_TANH_AVX512)

#define IMAP_TANH_NEON(tag, n_) IMAP_TANH_CELL(neon, tag, n_)
IMAP_TANH_SIZE_LIST(IMAP_TANH_NEON)

// --- tanh_grad ------------------------------------------------------------

// The scalar backend against the loop Mlp's backward ran before the kernel
// existed (written out below), every other backend against scalar: bitwise
// (NaN ⇔ NaN), on tanh outputs across (−1, 1) with ±0, ±1, NaN, ±inf and a
// subnormal mixed into both operands, over vector bodies and their tails.
void run_tanh_grad_cell(const std::string& backend, std::size_t n) {
  std::string why;
  const auto* be = lookup(backend, why);
  if (be == nullptr) GTEST_SKIP() << why;
  if (be->tanh_grad == nullptr)
    GTEST_SKIP() << backend
                 << " has no tanh_grad kernel (dispatch uses scalar)";
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> sp = {0.0,
                                  -0.0,
                                  1.0,
                                  -1.0,
                                  std::nextafter(1.0, 0.0),
                                  std::numeric_limits<double>::quiet_NaN(),
                                  inf,
                                  -inf,
                                  std::numeric_limits<double>::denorm_min()};
  Rng rng = shaped_rng(n, 1, 3);
  std::vector<double> y(n), g0(n);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = i % 3 == 1 ? sp[(i / 3) % sp.size()] : std::tanh(rng.normal(0.0, 1.5));
    g0[i] = i % 5 == 2 ? sp[(i / 5 + 4) % sp.size()] : rng.normal(0.0, 1.0);
  }
  std::vector<double> ref = g0, got = g0;
  if (be == &kernel::scalar_backend()) {
    for (std::size_t i = 0; i < n; ++i) ref[i] *= (1.0 - y[i] * y[i]);
  } else {
    kernel::scalar_backend().tanh_grad(y.data(), n, ref.data());
  }
  be->tanh_grad(y.data(), n, got.data());
  for (std::size_t i = 0; i < n; ++i)
    expect_same_tanh(ref[i], got[i], i, y[i]);
}

#define IMAP_TANH_GRAD_CELL(backend, tag, n_)    \
  TEST(KernelMatrix_##backend, TanhGrad_##tag) { \
    run_tanh_grad_cell(#backend, n_);            \
  }

#define IMAP_TANH_GRAD_SCALAR(tag, n_) IMAP_TANH_GRAD_CELL(scalar, tag, n_)
IMAP_TANH_SIZE_LIST(IMAP_TANH_GRAD_SCALAR)

#define IMAP_TANH_GRAD_AVX2(tag, n_) IMAP_TANH_GRAD_CELL(avx2, tag, n_)
IMAP_TANH_SIZE_LIST(IMAP_TANH_GRAD_AVX2)

#define IMAP_TANH_GRAD_AVX512(tag, n_) IMAP_TANH_GRAD_CELL(avx512, tag, n_)
IMAP_TANH_SIZE_LIST(IMAP_TANH_GRAD_AVX512)

#define IMAP_TANH_GRAD_NEON(tag, n_) IMAP_TANH_GRAD_CELL(neon, tag, n_)
IMAP_TANH_SIZE_LIST(IMAP_TANH_GRAD_NEON)

// Adam: the scalar backend against the per-element update nn::Adam::step
// applied before the kernel existed (written out below), every other
// backend against scalar — bitwise, on p, m and v, with clipping inactive
// (clip = 1) and active, at the first step and at t = 10⁴.
void run_adam_step_cell(const std::string& backend, std::size_t n) {
  std::string why;
  const auto* be = lookup(backend, why);
  if (be == nullptr) GTEST_SKIP() << why;
  if (be->adam_step == nullptr)
    GTEST_SKIP() << backend << " has no adam kernel (dispatch uses scalar)";
  const bool is_scalar = be == &kernel::scalar_backend();
  for (const double t : {1.0, 1e4}) {
    for (const double clip : {1.0, 0.37}) {
      SCOPED_TRACE("t=" + std::to_string(t) + " clip=" + std::to_string(clip));
      Rng rng = shaped_rng(n, static_cast<std::size_t>(t), 2);
      const kernel::AdamCoeffs c{.lr = 3e-4,
                                 .beta1 = 0.9,
                                 .beta2 = 0.999,
                                 .eps = 1e-8,
                                 .bc1 = 1.0 - std::pow(0.9, t),
                                 .bc2 = 1.0 - std::pow(0.999, t),
                                 .clip = clip};
      const std::vector<double> p0 = randn_vec(n, rng);
      const std::vector<double> g = randn_vec(n, rng);
      std::vector<double> m0 = randn_vec(n, rng), v0(n);
      for (auto& x : m0) x *= 0.1;
      for (auto& x : v0) x = t == 1.0 ? 0.0 : 0.01 * rng.uniform(0.0, 1.0);
      std::vector<double> p = p0, m = m0, v = v0;
      be->adam_step(p.data(), g.data(), m.data(), v.data(), n, c);
      std::vector<double> rp = p0, rm = m0, rv = v0;
      if (is_scalar) {
        for (std::size_t i = 0; i < n; ++i) {
          const double gi = g[i] * c.clip;
          rm[i] = c.beta1 * rm[i] + (1.0 - c.beta1) * gi;
          rv[i] = c.beta2 * rv[i] + (1.0 - c.beta2) * gi * gi;
          const double mhat = rm[i] / c.bc1;
          const double vhat = rv[i] / c.bc2;
          rp[i] -= c.lr * mhat / (std::sqrt(vhat) + c.eps);
        }
      } else {
        kernel::scalar_backend().adam_step(rp.data(), g.data(), rm.data(),
                                           rv.data(), n, c);
      }
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(rp[i]),
                  std::bit_cast<std::uint64_t>(p[i]))
            << "p[" << i << "]";
        ASSERT_EQ(std::bit_cast<std::uint64_t>(rm[i]),
                  std::bit_cast<std::uint64_t>(m[i]))
            << "m[" << i << "]";
        ASSERT_EQ(std::bit_cast<std::uint64_t>(rv[i]),
                  std::bit_cast<std::uint64_t>(v[i]))
            << "v[" << i << "]";
      }
    }
  }
}

#define IMAP_ADAM_SIZE_LIST(X) \
  X(N1, 1)                     \
  X(N7, 7)                     \
  X(N8, 8)                     \
  X(N9, 9)                     \
  X(N1000, 1000)

#define IMAP_ADAM_CELL(backend, tag, n_)         \
  TEST(KernelMatrix_##backend, AdamStep_##tag) { \
    run_adam_step_cell(#backend, n_);            \
  }

#define IMAP_ADAM_SCALAR(tag, n_) IMAP_ADAM_CELL(scalar, tag, n_)
IMAP_ADAM_SIZE_LIST(IMAP_ADAM_SCALAR)

#define IMAP_ADAM_AVX2(tag, n_) IMAP_ADAM_CELL(avx2, tag, n_)
IMAP_ADAM_SIZE_LIST(IMAP_ADAM_AVX2)

#define IMAP_ADAM_AVX512(tag, n_) IMAP_ADAM_CELL(avx512, tag, n_)
IMAP_ADAM_SIZE_LIST(IMAP_ADAM_AVX512)

#define IMAP_ADAM_NEON(tag, n_) IMAP_ADAM_CELL(neon, tag, n_)
IMAP_ADAM_SIZE_LIST(IMAP_ADAM_NEON)

// --- the generated matrix ---------------------------------------------------
// Shapes: in/out/batch spanning 1, odd, lane-multiple (4/8/16-wide SIMD
// blocks plus their 16-element unrolled variants), and large. The six from
// In11_Out32_B128 on are production layer shapes with batches that leave a
// remainder after the 4-row blocks (and after the 8-row blocks of the
// narrow-head affine path, out < lane width); In64_Out3_B6 has fewer rows
// than one such block. In13_Out14_B6 reaches the 4-wide and scalar column
// and output tails inside the 4-row blocks (in % 8 and out % 8 >= 4).
// X(tag, in, out, batch).
#define IMAP_KERNEL_SHAPE_LIST(X)     \
  X(In1_Out1_B1, 1, 1, 1)             \
  X(In5_Out7_B1, 5, 7, 1)             \
  X(In3_Out5_B2, 3, 5, 2)             \
  X(In8_Out16_B4, 8, 16, 4)           \
  X(In17_Out33_B7, 17, 33, 7)         \
  X(In32_Out64_B16, 32, 64, 16)       \
  X(In64_Out48_B33, 64, 48, 33)       \
  X(In24_Out24_B64, 24, 24, 64)       \
  X(In11_Out32_B128, 11, 32, 128)     \
  X(In32_Out32_B130, 32, 32, 130)     \
  X(In32_Out11_B131, 32, 11, 131)     \
  X(In32_Out1_B131, 32, 1, 131)       \
  X(In32_Out3_B9, 32, 3, 9)           \
  X(In64_Out3_B6, 64, 3, 6)           \
  X(In13_Out14_B6, 13, 14, 6)

#define IMAP_KERNEL_CELL(backend, tag, in_, out_, batch_)            \
  TEST(KernelMatrix_##backend, BatchAffine_##tag) {                  \
    run_affine_cell(#backend, in_, out_, batch_);                    \
  }                                                                  \
  TEST(KernelMatrix_##backend, BatchMatvecT_##tag) {                 \
    run_matvec_t_cell(#backend, in_, out_, batch_);                  \
  }                                                                  \
  TEST(KernelMatrix_##backend, BatchOuterAcc_##tag) {                \
    run_outer_acc_cell(#backend, in_, out_, batch_);                 \
  }                                                                  \
  TEST(KernelMatrix_##backend, QuantAffine_##tag) {                  \
    run_quant_cell(#backend, in_, out_, batch_);                     \
  }                                                                  \
  TEST(KernelMatrix_##backend, QuantAct_##tag) {                     \
    run_quant_act_cell(#backend, in_, out_, batch_);                 \
  }

#define IMAP_CELL_SCALAR(tag, in_, out_, batch_) \
  IMAP_KERNEL_CELL(scalar, tag, in_, out_, batch_)
IMAP_KERNEL_SHAPE_LIST(IMAP_CELL_SCALAR)

#define IMAP_CELL_AVX2(tag, in_, out_, batch_) \
  IMAP_KERNEL_CELL(avx2, tag, in_, out_, batch_)
IMAP_KERNEL_SHAPE_LIST(IMAP_CELL_AVX2)

#define IMAP_CELL_AVX512(tag, in_, out_, batch_) \
  IMAP_KERNEL_CELL(avx512, tag, in_, out_, batch_)
IMAP_KERNEL_SHAPE_LIST(IMAP_CELL_AVX512)

#define IMAP_CELL_NEON(tag, in_, out_, batch_) \
  IMAP_KERNEL_CELL(neon, tag, in_, out_, batch_)
IMAP_KERNEL_SHAPE_LIST(IMAP_CELL_NEON)

// KNN window-scan shapes: row counts with n % 8 in {0, 1, 7} (whole,
// one-lane and seven-lane last blocks), k in {1, 3, 16 = kKnnMaxK}, dim in
// {1, 11, 17}. N15_D17_K16 has fewer rows than k (every result +inf), and
// planted NaN keys leave some cells' scanned range below k. Each cell runs
// the three row sets of run_knn_scan_cell. X(tag, n, dim, k).
#define IMAP_KNN_SHAPE_LIST(X) \
  X(N1_D11_K1, 1, 11, 1)       \
  X(N8_D1_K1, 8, 1, 1)         \
  X(N9_D11_K3, 9, 11, 3)       \
  X(N15_D17_K16, 15, 17, 16)   \
  X(N16_D17_K16, 16, 17, 16)   \
  X(N17_D1_K16, 17, 1, 16)     \
  X(N23_D11_K1, 23, 11, 1)     \
  X(N64_D11_K3, 64, 11, 3)     \
  X(N129_D17_K3, 129, 17, 3)   \
  X(N199_D1_K16, 199, 1, 16)

#define IMAP_KNN_CELL(backend, tag, n_, dim_, k_) \
  TEST(KernelMatrix_##backend, KnnScan_##tag) {   \
    run_knn_scan_cell(#backend, n_, dim_, k_);    \
  }

#define IMAP_KNN_SCALAR(tag, n_, dim_, k_) \
  IMAP_KNN_CELL(scalar, tag, n_, dim_, k_)
IMAP_KNN_SHAPE_LIST(IMAP_KNN_SCALAR)

#define IMAP_KNN_AVX2(tag, n_, dim_, k_) IMAP_KNN_CELL(avx2, tag, n_, dim_, k_)
IMAP_KNN_SHAPE_LIST(IMAP_KNN_AVX2)

#define IMAP_KNN_AVX512(tag, n_, dim_, k_) \
  IMAP_KNN_CELL(avx512, tag, n_, dim_, k_)
IMAP_KNN_SHAPE_LIST(IMAP_KNN_AVX512)

#define IMAP_KNN_NEON(tag, n_, dim_, k_) IMAP_KNN_CELL(neon, tag, n_, dim_, k_)
IMAP_KNN_SHAPE_LIST(IMAP_KNN_NEON)

// --- dispatch-level behaviour ----------------------------------------------

TEST(KernelDispatch, ActiveBackendIsSupported) {
  EXPECT_TRUE(kernel::active_backend().supported());
}

TEST(KernelDispatch, ScalarBackendAlwaysPresent) {
  EXPECT_STREQ(kernel::scalar_backend().name, "scalar");
  EXPECT_TRUE(kernel::scalar_backend().supported());
  EXPECT_NE(kernel::find_backend("scalar"), nullptr);
}

TEST(KernelDispatch, RegistryIsWidestFirstAndEndsWithScalar) {
  const auto& all = kernel::all_backends();
  ASSERT_FALSE(all.empty());
  EXPECT_STREQ(all.back()->name, "scalar");
}

TEST(KernelDispatch, ScopedBackendForcesAndRestores) {
  const kernel::KernelBackend& before = kernel::active_backend();
  {
    kernel::ScopedBackend forced("scalar");
    ASSERT_TRUE(forced.activated());
    EXPECT_STREQ(kernel::active_backend().name, "scalar");
  }
  EXPECT_EQ(&kernel::active_backend(), &before);
}

TEST(KernelDispatch, ScopedBackendUnknownNameDoesNotActivate) {
  const kernel::KernelBackend& before = kernel::active_backend();
  {
    kernel::ScopedBackend forced("no-such-backend");
    EXPECT_FALSE(forced.activated());
    EXPECT_EQ(&kernel::active_backend(), &before);
  }
  EXPECT_EQ(&kernel::active_backend(), &before);
}

// The dispatcher must produce scalar-identical results whatever backend is
// forced — the end-to-end version of the per-cell pins above, exercised
// through the public kernel:: entry points (gates included).
TEST(KernelDispatch, DispatchedBatchAffineMatchesScalarUnderAllBackends) {
  const std::size_t in = 19, out = 27;
  Rng rng(77);
  const auto w = randn_vec(out * in, rng);
  const auto b = randn_vec(out, rng);
  for (std::size_t batch : {std::size_t{1}, std::size_t{3}, std::size_t{16}}) {
    const auto x = randn_vec(batch * in, rng);
    std::vector<double> ref(batch * out, 0.0);
    {
      kernel::ScopedBackend forced("scalar");
      ASSERT_TRUE(forced.activated());
      kernel::batch_affine(w.data(), b.data(), out, in, x.data(), batch,
                           ref.data());
    }
    for (const auto* be : kernel::all_backends()) {
      if (!be->supported()) continue;
      kernel::ScopedBackend forced(be->name);
      ASSERT_TRUE(forced.activated());
      std::vector<double> got(batch * out, 0.0);
      kernel::batch_affine(w.data(), b.data(), out, in, x.data(), batch,
                           got.data());
      for (std::size_t i = 0; i < ref.size(); ++i)
        ASSERT_EQ(ref[i], got[i])
            << be->name << ", batch " << batch << ", element " << i;
    }
  }
}

}  // namespace
