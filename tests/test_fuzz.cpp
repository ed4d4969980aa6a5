// Randomised property tests: fuzz the core numerical components against
// independent reference implementations, and the serving daemon's request
// parsing with seeded byte mutations (no libFuzzer: a fixed seed makes every
// case reproducible from the test name alone).

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "core/knn.h"
#include "nn/checkpoint.h"
#include "nn/gaussian.h"
#include "rl/gae.h"
#include "rl/policy_handle.h"
#include "serve/http.h"
#include "serve/server.h"
#include "knn_reference.h"
#include "temp_dir.h"

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

/// A fuzzed KNN value: Gaussian (sd 3), or on the integer grid {-2..2}
/// (clustered rows with equal sort keys and tied distances); with
/// `non_finite`, one value in 12 is NaN, +inf or -inf.
double knn_fuzz_value(Rng& rng, bool grid, bool non_finite) {
  if (non_finite && rng.bernoulli(1.0 / 12.0)) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const double pick[] = {std::numeric_limits<double>::quiet_NaN(), kInf,
                           -kInf};
    return pick[rng.uniform_int(0, 2)];
  }
  return grid ? static_cast<double>(rng.uniform_int(-2, 2))
              : rng.normal(0.0, 3.0);
}

/// Every query of `queries` (nq at `stride`) through the batch entry, each
/// checked bitwise against the reference chain over `mirror` and against
/// its own single-query result.
void expect_knn_matches_reference(const core::KnnBuffer& buf,
                                  const std::vector<std::vector<double>>& mirror,
                                  const std::vector<double>& queries,
                                  std::size_t nq, std::size_t stride,
                                  const std::string& where) {
  const std::size_t dim = buf.dim();
  std::vector<double> rows;
  for (const auto& p : mirror) rows.insert(rows.end(), p.begin(), p.end());
  std::vector<double> got(nq);
  buf.knn_distance_sq_batch(queries.data(), nq, stride, got.data());
  for (std::size_t i = 0; i < nq; ++i) {
    const double* q = queries.data() + i * stride;
    const double want = testing::knn_reference_kth_sq(
        rows.data(), mirror.size(), dim, q, buf.k());
    ASSERT_EQ(std::bit_cast<std::uint64_t>(want),
              std::bit_cast<std::uint64_t>(got[i]))
        << where << " query " << i << ": want " << want << ", got "
        << got[i];
    ASSERT_EQ(got[i], buf.knn_distance_sq(q)) << where << " query " << i;
  }
}

TEST(Fuzz, KnnMatchesBruteForceUnderInterleavedOps) {
  Rng rng(202);
  for (int trial = 0; trial < 24; ++trial) {
    // Trials cycle through Gaussian, clustered-grid and non-finite inputs.
    const bool grid = trial % 3 == 1;
    const bool non_finite = trial % 3 == 2;
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
        // A batch of 1-12 rows through add_rows (one re-sort per batch).
        const std::size_t n =
            1 + static_cast<std::size_t>(rng.uniform_int(0, 11));
        std::vector<double> batch(n * dim);
        for (auto& x : batch) x = knn_fuzz_value(rng, grid, non_finite);
        buf.add_rows(batch.data(), n);
        for (std::size_t r = 0; r < n; ++r) {
          std::vector<double> s(batch.begin() + static_cast<long>(r * dim),
                                batch.begin() + static_cast<long>(r * dim + dim));
          ++total;
          if (mirror.size() < cap) {
            mirror.push_back(std::move(s));
          } else {
            const auto j = static_cast<std::size_t>(
                mirror_rng.uniform_int(0, static_cast<int>(total) - 1));
            if (j < cap) mirror[j] = std::move(s);
          }
        }
        ASSERT_EQ(buf.size(), mirror.size());
        ASSERT_EQ(buf.total_added(), total);
        continue;
      }
      // A batch of queries at a padded stride; half of them copy a stored
      // row, the rest are fresh draws.
      const std::size_t nq =
          1 + static_cast<std::size_t>(rng.uniform_int(0, 8));
      const std::size_t stride = dim + 2;
      std::vector<double> queries(nq * stride, 0.0);
      for (std::size_t i = 0; i < nq; ++i) {
        const auto& row = mirror[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(mirror.size()) - 1))];
        const bool copy = rng.bernoulli(0.5);
        for (std::size_t c = 0; c < dim; ++c)
          queries[i * stride + c] =
              copy ? row[c] : knn_fuzz_value(rng, grid, non_finite);
      }
      expect_knn_matches_reference(
          buf, mirror, queries, nq, stride,
          "trial " + std::to_string(trial) + " op " + std::to_string(op));
      if (HasFatalFailure()) return;
    }
  }
}

/// A KnnBuffer checkpoint as save_state writes it: geometry, the sampling
/// stream, the row counts, and the rows row-major in slot order.
std::vector<std::uint8_t> knn_image(std::uint64_t dim, std::uint64_t cap,
                                    std::uint64_t k, std::uint64_t size,
                                    std::uint64_t total,
                                    const std::vector<double>& rows) {
  BinaryWriter w;
  w.write_u64(dim);
  w.write_u64(cap);
  w.write_u64(k);
  Rng(5).save_state(w);
  w.write_u64(size);
  w.write_u64(total);
  w.write_vec(rows);
  return w.buffer();
}

/// Load `image` into a fresh (dim, cap, k) buffer. It must either throw
/// CheckError, or load rows that the test's own parse of the image finds,
/// and then answer queries bitwise like the reference chain over them.
void expect_knn_load_exact(const std::vector<std::uint8_t>& image,
                           std::size_t dim, std::size_t cap, std::size_t k,
                           Rng& rng, const std::string& where) {
  core::KnnBuffer buf(dim, cap, k, Rng(0));
  try {
    BinaryReader r(image);
    buf.load_state(r);
  } catch (const CheckError&) {
    return;
  }
  // The image loaded: read its rows back the way the format lays them out.
  BinaryReader r(image);
  for (int i = 0; i < 3; ++i) r.read_u64();
  Rng(0).load_state(r);
  const std::size_t size = r.read_u64();
  r.read_u64();
  const std::vector<double> flat = r.read_vec();
  ASSERT_EQ(buf.size(), size) << where;
  std::vector<std::vector<double>> mirror(size);
  for (std::size_t s = 0; s < size; ++s)
    mirror[s].assign(flat.begin() + static_cast<long>(s * dim),
                     flat.begin() + static_cast<long>(s * dim + dim));
  constexpr std::size_t nq = 9;
  std::vector<double> queries(nq * dim);
  for (std::size_t i = 0; i < nq; ++i)
    for (std::size_t c = 0; c < dim; ++c)
      queries[i * dim + c] = size > 0 && i % 2 == 0
                                 ? mirror[i % size][c]
                                 : knn_fuzz_value(rng, i % 3 == 0, false);
  expect_knn_matches_reference(buf, mirror, queries, nq, dim, where);
}

TEST(Fuzz, KnnCheckpointLoadEndsInErrorOrExactBuffer) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr std::size_t dim = 5, cap = 24, k = 3;
  Rng rng(606);
  // A valid image of a full buffer whose rows hold NaN and ±inf values,
  // some of them in every column.
  std::vector<double> rows(cap * dim);
  for (auto& x : rows) x = knn_fuzz_value(rng, false, true);
  rows[0] = kNaN;
  rows[dim + 1] = kInf;
  rows[2 * dim + 2] = -kInf;
  const auto valid = knn_image(dim, cap, k, cap, 40, rows);
  expect_knn_load_exact(valid, dim, cap, k, rng, "valid non-finite image");
  {
    core::KnnBuffer buf(dim, cap, k, Rng(0));
    BinaryReader r(valid);
    buf.load_state(r);
    ASSERT_EQ(buf.size(), cap);
    // Save writes the image back byte for byte.
    BinaryWriter w;
    buf.save_state(w);
    ASSERT_EQ(w.buffer(), valid);
  }

  // Torn: every prefix of the image.
  for (std::size_t len = 0; len < valid.size(); ++len) {
    const std::vector<std::uint8_t> torn(valid.begin(),
                                         valid.begin() + static_cast<long>(len));
    expect_knn_load_exact(torn, dim, cap, k, rng,
                          "torn at " + std::to_string(len));
    if (HasFatalFailure()) return;
  }
  // Bit flips: one to three random bits anywhere, 600 images.
  for (int trial = 0; trial < 600; ++trial) {
    auto flipped = valid;
    const int flips = rng.uniform_int(1, 3);
    for (int f = 0; f < flips; ++f) {
      const auto bit = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(flipped.size() * 8) - 1));
      flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
    expect_knn_load_exact(flipped, dim, cap, k, rng,
                          "flip trial " + std::to_string(trial));
    if (HasFatalFailure()) return;
  }
  // Geometry-inconsistent sections must all be rejected.
  const std::vector<double> short_rows(dim * (cap - 1), 0.0);
  for (const auto& bad :
       {knn_image(dim + 1, cap, k, cap, 40, rows),
        knn_image(dim, cap + 1, k, cap, 40, rows),
        knn_image(dim, cap, k + 1, cap, 40, rows),
        knn_image(dim, cap, k, cap + 1, 40, rows),
        knn_image(dim, cap, k, cap, cap - 1, rows),
        knn_image(dim, cap, k, cap - 1, 40, short_rows),
        knn_image(dim, cap, k, cap, 40, short_rows),
        knn_image(dim, cap, k, std::uint64_t{1} << 61, 40, {})}) {
    core::KnnBuffer buf(dim, cap, k, Rng(0));
    BinaryReader r(bad);
    EXPECT_THROW(buf.load_state(r), CheckError);
  }
  // Length fields whose byte counts wrap 64 bits must be rejected, not
  // allocated: the row vector's count with bit 61 set (2^61 doubles are
  // 0 bytes mod 2^64), and the stream's state string with length 2^64 − 1
  // (the reader's position plus it wraps).
  {
    auto huge_rows = valid;
    huge_rows[valid.size() - rows.size() * sizeof(double) - 1] |= 0x20;
    auto huge_string = valid;
    for (std::size_t b = 0; b < sizeof(std::uint64_t); ++b)
      huge_string[4 * sizeof(std::uint64_t) + b] = 0xff;
    for (const auto& bad : {huge_rows, huge_string}) {
      core::KnnBuffer buf(dim, cap, k, Rng(0));
      BinaryReader r(bad);
      EXPECT_THROW(buf.load_state(r), CheckError);
    }
  }
  // A partly filled image (rows, all NaN/inf-laced) loads exactly too.
  const std::vector<double> part(rows.begin(),
                                 rows.begin() + static_cast<long>(7 * dim));
  expect_knn_load_exact(knn_image(dim, cap, k, 7, 7, part), dim, cap, k, rng,
                        "partial image");
}

// ------------------------------------------------------- Gaussian policy

TEST(Fuzz, LogProbConsistentWithSampling) {
  // Monte-Carlo check: E[exp(logp)] integrates to ≈ 1 over a grid for 1-D.
  Rng rng(303);
  for (int trial = 0; trial < 5; ++trial) {
    const double mean = rng.normal(0.0, 1.0);
    const double ls = rng.uniform(-1.0, 0.5);
    const double inv_std = std::exp(-ls);
    double integral = 0.0;
    const double lo = mean - 6.0 * std::exp(ls), hi = mean + 6.0 * std::exp(ls);
    const int steps = 2000;
    const double h = (hi - lo) / steps;
    for (int i = 0; i < steps; ++i) {
      const double x = lo + (i + 0.5) * h;
      integral +=
          std::exp(nn::diag_gaussian::log_prob(&x, &mean, &ls, &inv_std, 1)) *
          h;
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

// ------------------------------------------------------- serving inputs

/// One seeded mutation of `s`: flip a byte, insert or delete a run, repeat
/// a span, or splice in a token the parsers treat specially.
std::string mutate(std::string s, Rng& rng) {
  static const char* const kTokens[] = {
      "\r\n", "\r\n\r\n", "&", "=", "?", " ", "\n", "-", "+", "e308",
      "nan", "inf", "1e-400", "0x1p3", "99999999999999999999", "%00",
      "Content-Length: ", "Content-Length: 3\r\n", ":", "\t", "/"};
  const auto pos = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(n)));
  };
  switch (rng.uniform_int(0, 4)) {
    case 0:  // flip one byte
      if (!s.empty())
        s[pos(s.size() - 1)] = static_cast<char>(rng.uniform_int(0, 255));
      break;
    case 1:  // insert random bytes
      s.insert(pos(s.size()),
               std::string(static_cast<std::size_t>(rng.uniform_int(1, 8)),
                           static_cast<char>(rng.uniform_int(0, 255))));
      break;
    case 2: {  // delete a run
      const std::size_t at = pos(s.size());
      s.erase(at, static_cast<std::size_t>(rng.uniform_int(1, 16)));
      break;
    }
    case 3: {  // repeat a span
      const std::size_t at = pos(s.size());
      const std::string span =
          s.substr(at, static_cast<std::size_t>(rng.uniform_int(1, 24)));
      s.insert(pos(s.size()), span);
      break;
    }
    default:  // splice a token
      s.insert(pos(s.size()),
               kTokens[rng.uniform_int(0, std::size(kTokens) - 1)]);
  }
  return s;
}

std::string mutated(const std::string& seed, Rng& rng) {
  std::string s = seed;
  for (int k = rng.uniform_int(1, 4); k > 0; --k) s = mutate(std::move(s), rng);
  return s;
}

std::string infer_row(const std::vector<double>& obs) {
  std::string out;
  char num[32];
  for (std::size_t i = 0; i < obs.size(); ++i) {
    const auto res = std::to_chars(num, num + sizeof num, obs[i]);
    if (i > 0) out += ' ';
    out.append(num, static_cast<std::size_t>(res.ptr - num));
  }
  return out + '\n';
}

std::string framed(const std::string& method, const std::string& target,
                   const std::string& body) {
  return method + " " + target + " HTTP/1.1\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

TEST(Fuzz, ParseRequestEndsOkIncompleteOrBad) {
  const std::string row = infer_row(Rng(1).normal_vec(11, 0.0, 0.4));
  const std::vector<std::string> seeds = {
      "GET /health HTTP/1.1\r\nHost: x\r\n\r\n",
      framed("POST", "/infer?env=Hopper&defense=PPO", row),
      framed("POST", "/infer?scenario=hopper+obs_perturb:0.2", row + row),
      "GET /attack/status?id=7&verbose HTTP/1.1\r\n\r\n" +
          framed("POST", "/models/invalidate?env=Hopper", ""),
      "POST /x HTTP/1.1\r\ncontent-length:\t4 \r\n\r\nabcd",
  };
  Rng rng(606);
  for (int trial = 0; trial < 20'000; ++trial) {
    std::string buf = mutated(seeds[rng.uniform_int(0, 4)], rng);
    // Consume pipelined requests until the parser stops: every Ok must
    // shrink the buffer, Incomplete and Bad must leave it untouched.
    for (;;) {
      const std::string before = buf;
      serve::HttpRequest req;
      const serve::ParseStatus st = serve::parse_request(buf, req);
      if (st != serve::ParseStatus::Ok) {
        ASSERT_EQ(buf, before) << "trial " << trial;
        break;
      }
      ASSERT_LT(buf.size(), before.size()) << "trial " << trial;
      ASSERT_FALSE(req.path.empty());
      EXPECT_EQ(req.path[0], '/');
      for (const auto& [name, value] : req.params) {
        (void)req.param(name);
        (void)req.param_ll(name, 0);
      }
    }
  }
}

/// A loopback server over a zoo holding one synthetic Hopper victim, so a
/// request that still names Hopper (in any spelling or scenario) loads it
/// instead of training one.
class ServeFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = imap::testing::unique_temp_dir("imap_test_serve_fuzz");
    std::filesystem::remove_all(dir_);
    serve::ServeOptions opts;
    opts.threads = 2;
    opts.bench.zoo_dir = dir_;
    opts.bench.scale = 0.01;
    opts.bench.seed = 7;
    server_ = std::make_unique<serve::Server>(opts);
    Rng rng(1);
    ASSERT_TRUE(nn::save_policy(
        server_->zoo().checkpoint_path("Hopper", "PPO"),
        nn::GaussianPolicy(11, 3, {16, 16}, rng)));
    server_->start();
  }
  void TearDown() override {
    server_->stop();
    server_.reset();
    std::filesystem::remove_all(dir_);
  }

  /// Send `request` on a fresh connection and return the status of the one
  /// response, 0 if none came within 10 s.
  int status_for(const std::string& request) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(server_->port());
    EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        static_cast<socklen_t>(sizeof addr)),
              0);
    EXPECT_TRUE(serve::send_all(fd, request));
    std::string got;
    char chunk[4096];
    while (got.find("\r\n\r\n") == std::string::npos) {
      pollfd p{fd, POLLIN, 0};
      if (::poll(&p, 1, 10'000) <= 0) break;
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n <= 0) break;
      got.append(chunk, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return got.size() > 12 && got.compare(0, 9, "HTTP/1.1 ") == 0
               ? std::atoi(got.c_str() + 9)
               : 0;
  }

  std::string dir_;
  std::unique_ptr<serve::Server> server_;
};

TEST_F(ServeFuzz, InferBodiesAndQueryStringsAnswer200Or4xx) {
  Rng obs_rng(2);
  const std::string row = infer_row(obs_rng.normal_vec(11, 0.0, 0.4));
  const std::string rows = row + infer_row(obs_rng.normal_vec(11, 0.0, 0.4));
  const std::vector<std::string> targets = {
      "/infer?env=Hopper&defense=PPO", "/infer?scenario=hopper+obs_perturb:0.2",
      "/infer?env=Hopper", "/attack/status?id=12"};
  Rng rng(707);
  int ok = 0, client_errors = 0;
  for (int trial = 0; trial < 2'000; ++trial) {
    const std::string& seed = targets[rng.uniform_int(0, 3)];
    std::string target = rng.bernoulli(0.5) ? mutated(seed, rng) : seed;
    // A space or line break would end the request line early: the parser's
    // own fuzz above covers that framing.
    std::replace_if(
        target.begin(), target.end(),
        [](char c) { return c == ' ' || c == '\r' || c == '\n'; }, '_');
    const std::string body =
        mutated(rng.bernoulli(0.5) ? row : rows, rng);
    const int status = status_for(framed("POST", target, body));
    ASSERT_TRUE(status == 200 || (status >= 400 && status < 500))
        << "trial " << trial << ": " << status << " for " << target;
    (status == 200 ? ok : client_errors) += 1;
  }
  // The mutations reached both outcomes, and the server still serves.
  EXPECT_GT(ok, 0);
  EXPECT_GT(client_errors, 0);
  EXPECT_EQ(status_for("GET /health HTTP/1.1\r\n\r\n"), 200);
}

}  // namespace
}  // namespace imap
