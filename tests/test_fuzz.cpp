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
#include <charconv>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/knn.h"
#include "nn/checkpoint.h"
#include "nn/gaussian.h"
#include "rl/gae.h"
#include "rl/policy_handle.h"
#include "serve/http.h"
#include "serve/server.h"
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
