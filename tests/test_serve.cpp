#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/proc.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "common/thread_pool.h"
#include "core/zoo.h"
#include "env/registry.h"
#include "nn/checkpoint.h"
#include "serve/coalescer.h"
#include "serve/http.h"
#include "serve/model_cache.h"
#include "serve/server.h"
#include "temp_dir.h"

namespace imap::serve {
namespace {

/// Lint-clean sleep: poll a pipe that never becomes readable.
void sleep_ms(int ms) {
  static int fds[2] = {-1, -1};
  if (fds[0] < 0) {
    ASSERT_EQ(::pipe(fds), 0);
  }
  proc::poll_readable({fds[0]}, ms);
}

/// The server's response formatting (shortest-round-trip std::to_chars),
/// replicated so tests can compare an HTTP body bit-for-bit against a
/// direct PolicyHandle::query.
std::string format_row(const std::vector<double>& a) {
  char num[32];
  std::string out;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto res = std::to_chars(num, num + sizeof num, a[i]);
    if (i > 0) out += ' ';
    out.append(num, static_cast<std::size_t>(res.ptr - num));
  }
  out += '\n';
  return out;
}

std::shared_ptr<const nn::GaussianPolicy> make_net(std::uint64_t seed,
                                                   std::size_t obs = 11,
                                                   std::size_t act = 3) {
  Rng rng(seed);
  return std::make_shared<const nn::GaussianPolicy>(
      obs, act, std::vector<std::size_t>{16, 16}, rng);
}

std::vector<double> make_obs(std::uint64_t seed, std::size_t dim = 11) {
  Rng rng(seed);
  return rng.normal_vec(dim, 0.0, 0.4);
}

// ---------------------------------------------------------------- HTTP ----

TEST(HttpParse, SimpleGet) {
  std::string buf = "GET /health HTTP/1.1\r\nHost: x\r\n\r\n";
  HttpRequest req;
  ASSERT_EQ(parse_request(buf, req), ParseStatus::Ok);
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.path, "/health");
  EXPECT_TRUE(req.body.empty());
  EXPECT_TRUE(buf.empty());
}

TEST(HttpParse, QueryParams) {
  std::string buf = "GET /attack/status?id=7&verbose HTTP/1.1\r\n\r\n";
  HttpRequest req;
  ASSERT_EQ(parse_request(buf, req), ParseStatus::Ok);
  EXPECT_EQ(req.path, "/attack/status");
  EXPECT_EQ(req.param_ll("id", -1), 7);
  EXPECT_EQ(req.param("verbose", "missing"), "");
  EXPECT_EQ(req.param("absent", "fallback"), "fallback");
}

TEST(HttpParse, PostBodyAndPipelining) {
  std::string buf =
      "POST /infer?env=Hopper HTTP/1.1\r\nContent-Length: 5\r\n\r\n1 2 3"
      "GET /health HTTP/1.1\r\n\r\n";
  HttpRequest req;
  ASSERT_EQ(parse_request(buf, req), ParseStatus::Ok);
  EXPECT_EQ(req.method, "POST");
  EXPECT_EQ(req.body, "1 2 3");
  EXPECT_EQ(req.param("env"), "Hopper");
  // The pipelined follower stays in the buffer and parses next.
  ASSERT_EQ(parse_request(buf, req), ParseStatus::Ok);
  EXPECT_EQ(req.path, "/health");
  EXPECT_TRUE(buf.empty());
}

TEST(HttpParse, IncompleteThenComplete) {
  std::string buf = "POST /x HTTP/1.1\r\nContent-Length: 4\r\n\r\nab";
  HttpRequest req;
  EXPECT_EQ(parse_request(buf, req), ParseStatus::Incomplete);
  buf += "cd";
  ASSERT_EQ(parse_request(buf, req), ParseStatus::Ok);
  EXPECT_EQ(req.body, "abcd");
}

TEST(HttpParse, MalformedRequestLine) {
  std::string buf = "NONSENSE\r\n\r\n";
  HttpRequest req;
  EXPECT_EQ(parse_request(buf, req), ParseStatus::Bad);
}

TEST(HttpParse, ContentLengthIsDigitsOnly) {
  // A signed, overflowing or junk-trailed length is malformed, and nothing
  // is consumed: a wrapped size would leave body bytes behind to parse as
  // the next request.
  for (const std::string cl :
       {"-1", "+5", "18446744073709551615", "99999999999999999999999", "5x",
        "5 5", "", "8388609"}) {
    const std::string sent = "POST /infer HTTP/1.1\r\nContent-Length: " + cl +
                             "\r\n\r\n1 2 3GET /health HTTP/1.1\r\n\r\n";
    std::string buf = sent;
    HttpRequest req;
    EXPECT_EQ(parse_request(buf, req), ParseStatus::Bad) << cl;
    EXPECT_EQ(buf, sent) << cl;
  }
  // Spaces and tabs around the digits are header whitespace, not junk.
  std::string buf = "POST /x HTTP/1.1\r\nContent-Length: \t5 \r\n\r\n1 2 3";
  HttpRequest req;
  ASSERT_EQ(parse_request(buf, req), ParseStatus::Ok);
  EXPECT_EQ(req.body, "1 2 3");
  EXPECT_TRUE(buf.empty());
}

TEST(HttpParse, IntegerParamsRejectMalformedAndOutOfRange) {
  std::string buf =
      "GET /x?big=99999999999999999999&neg=-3&junk=12z&empty= HTTP/1.1\r\n\r\n";
  HttpRequest req;
  ASSERT_EQ(parse_request(buf, req), ParseStatus::Ok);
  EXPECT_FALSE(req.param_ll("big", 0).has_value());
  EXPECT_FALSE(req.param_ll("junk", 0).has_value());
  EXPECT_EQ(req.param_ll("neg", 0), -3);
  EXPECT_EQ(req.param_ll("empty", 5), 5);
  EXPECT_EQ(req.param_ll("absent", 5), 5);
}

TEST(HttpParse, ResponseRoundTripShape) {
  const std::string r = format_response(200, "text/plain", "hello");
  EXPECT_NE(r.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_NE(r.find("Content-Length: 5\r\n"), std::string::npos);
  EXPECT_EQ(r.substr(r.size() - 5), "hello");
}

// ---------------------------------------------------- loopback clients ----

/// A client connection; `rcvbuf` > 0 shrinks its receive buffer first.
int connect_to(std::uint16_t port, int rcvbuf = 0) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  if (rcvbuf > 0) {
    EXPECT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf,
                           static_cast<socklen_t>(sizeof rcvbuf)),
              0);
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      static_cast<socklen_t>(sizeof addr)),
            0);
  return fd;
}

/// Read exactly one HTTP response off `fd` (headers + Content-Length).
/// `carry` holds bytes past the first response — pipelined replies can
/// arrive in one segment, and a stateless reader would swallow the second
/// response and then block forever waiting for bytes already consumed.
std::string read_response(int fd, std::string* carry = nullptr) {
  std::string local;
  std::string& buf = carry != nullptr ? *carry : local;
  char chunk[4096];
  for (;;) {
    const std::size_t head_end = buf.find("\r\n\r\n");
    if (head_end != std::string::npos) {
      const std::size_t cl = buf.find("Content-Length: ");
      EXPECT_NE(cl, std::string::npos);
      const std::size_t len = static_cast<std::size_t>(
          std::strtoull(buf.c_str() + cl + 16, nullptr, 10));
      if (buf.size() >= head_end + 4 + len) {
        const std::string resp = buf.substr(0, head_end + 4 + len);
        buf.erase(0, head_end + 4 + len);
        return resp;
      }
    }
    const ssize_t n = ::recv(fd, chunk, 4096, 0);
    if (n <= 0) {
      const std::string resp = buf;
      buf.clear();
      return resp;
    }
    buf.append(chunk, static_cast<std::size_t>(n));
  }
}

int status_of(const std::string& response) {
  return std::atoi(response.c_str() + 9);
}

std::string body_of(const std::string& response) {
  const std::size_t head_end = response.find("\r\n\r\n");
  return head_end == std::string::npos ? "" : response.substr(head_end + 4);
}

std::string http_request(const std::string& method, const std::string& target,
                         const std::string& body = "") {
  return method + " " + target + " HTTP/1.1\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

/// One-shot request on a fresh connection.
std::string roundtrip_on(std::uint16_t port, const std::string& method,
                         const std::string& target,
                         const std::string& body = "") {
  const int fd = connect_to(port);
  EXPECT_TRUE(send_all(fd, http_request(method, target, body)));
  const std::string resp = read_response(fd);
  ::close(fd);
  return resp;
}

/// Poll `done` every millisecond for at most `ms` milliseconds.
bool eventually(const std::function<bool()>& done, int ms = 10'000) {
  for (int i = 0; i < ms && !done(); ++i) sleep_ms(1);
  return done();
}

// ----------------------------------------------------------- coalescer ----

class CoalescerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = imap::testing::unique_temp_dir("imap_test_coalesce");
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    zoo_ = std::make_unique<core::Zoo>(dir_, 0.01, 7);
  }
  void TearDown() override {
    if (server_ != nullptr) server_->stop();
    server_.reset();
    std::filesystem::remove_all(dir_);
  }

  std::shared_ptr<const ServedModel> model(ModelCache& cache,
                                           std::uint64_t seed,
                                           const std::string& env = "Hopper") {
    return cache.put(env, "PPO", make_net(seed));
  }

  /// A server on this test's zoo, which holds no checkpoint yet.
  Server& start_server(int threads = 4) {
    ServeOptions opts;
    opts.threads = threads;
    opts.coalesce.max_batch = 8;
    opts.cache.ttl_ms = 600'000;
    opts.bench.zoo_dir = dir_;
    opts.bench.scale = 0.01;
    opts.bench.seed = 7;
    server_ = std::make_unique<Server>(opts);
    server_->start();
    return *server_;
  }

  /// Send one single-row /infer on a fresh connection; returns the fd.
  int send_infer(const std::string& env, const std::vector<double>& obs) {
    const int fd = connect_to(server_->port());
    EXPECT_TRUE(
        send_all(fd, http_request("POST", "/infer?env=" + env,
                                  format_row(obs))));
    return fd;
  }

  /// Block `env`'s victim build, as a concurrent trainer would: the zoo
  /// takes this lock before it trains a missing checkpoint.
  std::unique_ptr<proc::FileLock> hold_build(const std::string& env) {
    return std::make_unique<proc::FileLock>(
        server_->zoo().checkpoint_path(env, "PPO") + ".lock");
  }

  /// Let a held build finish by loading `net` instead of training.
  void release_build(const std::string& env,
                     std::unique_ptr<proc::FileLock>& lock,
                     const nn::GaussianPolicy& net) {
    ASSERT_TRUE(
        nn::save_policy(server_->zoo().checkpoint_path(env, "PPO"), net));
    lock.reset();
  }

  std::string dir_;
  std::unique_ptr<core::Zoo> zoo_;
  std::unique_ptr<Server> server_;
};

TEST_F(CoalescerTest, ScatterGatherBitIdenticalToDirectQuery) {
  ServeMetrics metrics;
  ModelCache cache(*zoo_, {}, &metrics);
  const auto m = model(cache, 11);
  const Coalescer co({}, &metrics);

  constexpr std::size_t kRows = 16;
  std::vector<double> obs;
  for (std::size_t i = 0; i < kRows; ++i) {
    const auto row = make_obs(i);
    obs.insert(obs.end(), row.begin(), row.end());
  }
  const nn::Batch& out = co.forward(*m, obs.data(), kRows);
  ASSERT_EQ(out.rows(), kRows);
  for (std::size_t i = 0; i < kRows; ++i)
    EXPECT_EQ(std::vector<double>(out.row(i), out.row(i) + 3),
              m->handle.query(make_obs(i)))
        << "row " << i;
  EXPECT_EQ(metrics.coalesced_batches.get(), 1u);
  EXPECT_EQ(metrics.batch_size.max(), kRows);
}

TEST_F(CoalescerTest, DisabledModeStaysBitIdentical) {
  ServeMetrics metrics;
  ModelCache cache(*zoo_, {}, &metrics);
  const auto m = model(cache, 5);
  for (const int max_batch : {-3, 0, 1}) {
    Coalescer::Options copts;
    copts.max_batch = max_batch;
    const Coalescer co(copts, &metrics);
    EXPECT_EQ(co.max_batch(), 1u);  // one row per forward
    const auto obs = make_obs(9);
    EXPECT_EQ(co.infer(m, obs), m->handle.query(obs));
  }
  EXPECT_EQ(metrics.batch_size.max(), 1u);
}

TEST_F(CoalescerTest, RejectsWidthMismatch) {
  ModelCache cache(*zoo_, {});
  const auto m = model(cache, 6);
  const Coalescer co({});
  EXPECT_THROW(co.infer(m, make_obs(1, 7)), CheckError);
}

TEST_F(CoalescerTest, OneForwardPerVictimPerRound) {
  Server& server = start_server();
  // Requests parked on a cold victim are routed in the one poll round that
  // sees its build finish, so they must share one forward.
  auto lock = hold_build("Hopper");
  constexpr std::size_t kClients = 6;
  std::vector<int> fds;
  for (std::size_t i = 0; i < kClients; ++i)
    fds.push_back(send_infer("Hopper", make_obs(500 + i)));
  ASSERT_TRUE(eventually(
      [&] { return server.metrics().infer_requests.get() == kClients; }));
  EXPECT_EQ(server.metrics().coalesced_batches.get(), 0u);
  release_build("Hopper", lock, *make_net(1));

  const auto direct = rl::PolicyHandle::serving(make_net(1), true);
  for (std::size_t i = 0; i < kClients; ++i) {
    EXPECT_EQ(body_of(read_response(fds[i])),
              format_row(direct.query(make_obs(500 + i))))
        << "client " << i;
    ::close(fds[i]);
  }
  EXPECT_EQ(server.metrics().coalesced_batches.get(), 1u);
  EXPECT_EQ(server.metrics().batch_size.max(), kClients);
  EXPECT_EQ(server.metrics().pool_tasks.get(), 1u);  // the one build
}

TEST_F(CoalescerTest, DistinctVictimsNeverShareABatch) {
  Server& server = start_server();
  const std::size_t walker_obs =
      env::make_training_env("Walker2d")->obs_dim();
  const std::size_t walker_act =
      env::make_training_env("Walker2d")->act_dim();
  auto hopper_lock = hold_build("Hopper");
  auto walker_lock = hold_build("Walker2d");
  constexpr std::size_t kClients = 8;
  std::vector<int> fds;
  for (std::size_t i = 0; i < kClients; ++i)
    fds.push_back(i % 2 == 0 ? send_infer("Hopper", make_obs(i))
                             : send_infer("Walker2d", make_obs(i, walker_obs)));
  ASSERT_TRUE(eventually(
      [&] { return server.metrics().infer_requests.get() == kClients; }));
  const auto walker = make_net(2, walker_obs, walker_act);
  release_build("Hopper", hopper_lock, *make_net(1));
  release_build("Walker2d", walker_lock, *walker);

  const auto hopper_direct = rl::PolicyHandle::serving(make_net(1), true);
  const auto walker_direct = rl::PolicyHandle::serving(walker, true);
  for (std::size_t i = 0; i < kClients; ++i) {
    const auto expect = i % 2 == 0
                            ? hopper_direct.query(make_obs(i))
                            : walker_direct.query(make_obs(i, walker_obs));
    EXPECT_EQ(body_of(read_response(fds[i])), format_row(expect))
        << "client " << i;
    ::close(fds[i]);
  }
  EXPECT_EQ(server.metrics().coalesced_batches.get(), 2u);
  EXPECT_EQ(server.metrics().batch_size.max(), kClients / 2);
}

TEST_F(CoalescerTest, HotSwappedSnapshotNeverSharesAForwardWithItsPredecessor) {
  // One pool worker, kept busy by a held Walker2d build: forwards too large
  // for the loop queue behind it, taking rows until the worker starts them.
  Server& server = start_server(/*threads=*/1);
  const auto big = [](std::uint64_t seed) {
    Rng rng(seed);
    return std::make_shared<const nn::GaussianPolicy>(
        11, 3, std::vector<std::size_t>{512, 512}, rng);
  };
  const auto old_net = big(40);
  const auto new_net = big(41);
  const auto old_model = server.model_cache().put("Hopper", "PPO", old_net);
  ASSERT_FALSE(Coalescer::runs_inline(*old_model, 1));

  auto walker_lock = hold_build("Walker2d");
  const std::size_t walker_obs =
      env::make_training_env("Walker2d")->obs_dim();
  const int walker_fd = send_infer("Walker2d", make_obs(0, walker_obs));
  ASSERT_TRUE(eventually(
      [&] { return server.metrics().pool_tasks.get() == 1u; }));

  std::vector<int> fds;
  fds.push_back(send_infer("Hopper", make_obs(1)));  // old snapshot
  ASSERT_TRUE(eventually(
      [&] { return server.metrics().pool_tasks.get() == 2u; }));
  server.model_cache().put("Hopper", "PPO", new_net);  // hot swap
  fds.push_back(send_infer("Hopper", make_obs(2)));  // new snapshot
  ASSERT_TRUE(eventually(
      [&] { return server.metrics().pool_tasks.get() == 3u; }));
  fds.push_back(send_infer("Hopper", make_obs(3)));  // joins the queued group
  ASSERT_TRUE(eventually(
      [&] { return server.metrics().infer_requests.get() == 4u; }));
  sleep_ms(20);  // one more poll round: the row reached its group
  EXPECT_EQ(server.metrics().pool_tasks.get(), 3u);
  release_build("Walker2d", walker_lock,
                *make_net(2, walker_obs,
                          env::make_training_env("Walker2d")->act_dim()));

  const auto old_direct = rl::PolicyHandle::serving(old_net, true);
  const auto new_direct = rl::PolicyHandle::serving(new_net, true);
  EXPECT_EQ(body_of(read_response(fds[0])),
            format_row(old_direct.query(make_obs(1))));
  EXPECT_EQ(body_of(read_response(fds[1])),
            format_row(new_direct.query(make_obs(2))));
  EXPECT_EQ(body_of(read_response(fds[2])),
            format_row(new_direct.query(make_obs(3))));
  EXPECT_EQ(status_of(read_response(walker_fd)), 200);
  for (const int fd : fds) ::close(fd);
  ::close(walker_fd);
  // Old snapshot alone, new snapshot's two rows together, the Walker2d row.
  EXPECT_EQ(server.metrics().coalesced_batches.get(), 3u);
  EXPECT_EQ(server.metrics().batch_size.max(), 2u);
}

// ---------------------------------------------------------- model cache ----

class ModelCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = imap::testing::unique_temp_dir("imap_test_mcache");
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    zoo_ = std::make_unique<core::Zoo>(dir_, 0.01, 7);
    // Pre-seed a synthetic checkpoint so cache builds never train.
    ASSERT_TRUE(nn::save_policy(zoo_->checkpoint_path("Hopper", "PPO"),
                                *make_net(1)));
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
  std::unique_ptr<core::Zoo> zoo_;
};

TEST_F(ModelCacheTest, HitWithinTtlCostsNoLoad) {
  ServeMetrics metrics;
  ModelCache cache(*zoo_, {.capacity = 4, .ttl_ms = 60'000, .quant = true},
                   &metrics);
  const auto m1 = cache.get("Hopper", "PPO");
  EXPECT_EQ(metrics.cache_misses.get(), 1u);
  EXPECT_EQ(zoo_->full_loads(), 1u);
  const auto m2 = cache.get("Hopper", "PPO");
  EXPECT_EQ(m1.get(), m2.get());
  EXPECT_EQ(metrics.cache_hits.get(), 1u);
  EXPECT_EQ(zoo_->full_loads(), 1u);  // warm lookup: no archive re-read
  EXPECT_EQ(m1->archive_version, kFormatVersion);
  EXPECT_NE(m1->content_crc, 0u);
  EXPECT_TRUE(m1->quantized);
  EXPECT_TRUE(m1->handle.quantized());
}

TEST_F(ModelCacheTest, TtlExpiryRevalidatesWithOneStat) {
  ServeMetrics metrics;
  ModelCache cache(*zoo_, {.capacity = 4, .ttl_ms = 30, .quant = false},
                   &metrics);
  const auto m1 = cache.get("Hopper", "PPO");
  sleep_ms(60);
  const auto m2 = cache.get("Hopper", "PPO");
  // Unchanged on disk: the entry re-arms; no reload, no archive re-read.
  EXPECT_EQ(m1.get(), m2.get());
  EXPECT_EQ(metrics.cache_revalidations.get(), 1u);
  EXPECT_EQ(metrics.cache_reloads.get(), 0u);
  EXPECT_EQ(zoo_->full_loads(), 1u);
}

TEST_F(ModelCacheTest, ChangedCheckpointHotSwapsWithoutDroppingOldModel) {
  ServeMetrics metrics;
  ModelCache cache(*zoo_, {.capacity = 4, .ttl_ms = 30, .quant = false},
                   &metrics);
  const auto before = cache.get("Hopper", "PPO");
  const auto obs = make_obs(4);
  const auto before_action = before->handle.query(obs);

  // Retrain-equivalent: different weights land at the same path.
  ASSERT_TRUE(nn::save_policy(zoo_->checkpoint_path("Hopper", "PPO"),
                              *make_net(2)));
  sleep_ms(60);
  const auto after = cache.get("Hopper", "PPO");
  EXPECT_NE(before.get(), after.get());
  EXPECT_NE(before->content_crc, after->content_crc);
  EXPECT_EQ(metrics.cache_reloads.get(), 1u);
  // The in-flight snapshot keeps serving bit-identically after the swap.
  EXPECT_EQ(before->handle.query(obs), before_action);
  EXPECT_NE(after->handle.query(obs), before_action);
}

TEST_F(ModelCacheTest, CapacityEvictsLeastRecentlyUsed) {
  ServeMetrics metrics;
  ModelCache cache(*zoo_, {.capacity = 2, .ttl_ms = 60'000, .quant = true},
                   &metrics);
  cache.put("A", "PPO", make_net(1));
  cache.put("B", "PPO", make_net(2));
  cache.get("A", "PPO");  // A is now the most recently used
  cache.put("C", "PPO", make_net(3));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(metrics.cache_evictions.get(), 1u);
  // B was LRU; A and C survive as instant hits.
  const auto hits = metrics.cache_hits.get();
  cache.get("A", "PPO");
  cache.get("C", "PPO");
  EXPECT_EQ(metrics.cache_hits.get(), hits + 2);
}

TEST_F(ModelCacheTest, InvalidateForcesRebuild) {
  ServeMetrics metrics;
  ModelCache cache(*zoo_, {.capacity = 4, .ttl_ms = 60'000, .quant = false},
                   &metrics);
  cache.get("Hopper", "PPO");
  cache.invalidate("Hopper", "PPO");
  EXPECT_EQ(cache.size(), 0u);
  cache.get("Hopper", "PPO");
  EXPECT_EQ(metrics.cache_misses.get(), 2u);
}

TEST_F(ModelCacheTest, ModelsJsonListsResidentEntries) {
  ModelCache cache(*zoo_, {});
  cache.put("Hopper", "PPO", make_net(1));
  const std::string json = cache.render_json();
  EXPECT_NE(json.find("\"env\":\"Hopper\""), std::string::npos);
  EXPECT_NE(json.find("\"archive_version\":" +
                      std::to_string(kFormatVersion)),
            std::string::npos);
}

TEST_F(ModelCacheTest, ScenarioEntriesCarryThreatModelAndShareTheCheckpoint) {
  ServeMetrics metrics;
  ModelCache cache(*zoo_, {.capacity = 4, .ttl_ms = 60'000, .quant = false},
                   &metrics);
  const auto base = cache.get("Hopper", "PPO");
  const auto scn = cache.get("hopper+obs_perturb:0.2+budget:0.4", "PPO");
  // Distinct residency entries (the threat model is part of the identity)...
  EXPECT_NE(base.get(), scn.get());
  EXPECT_EQ(cache.size(), 2u);
  // ...over ONE underlying artifact: same path, same bytes, one parse.
  EXPECT_EQ(scn->env, "Hopper");
  EXPECT_EQ(scn->scenario, "Hopper+obs_perturb:0.2+budget:0.4");
  EXPECT_DOUBLE_EQ(scn->epsilon, 0.2);
  EXPECT_DOUBLE_EQ(scn->budget, 0.4);
  EXPECT_EQ(scn->path, base->path);
  EXPECT_EQ(scn->content_crc, base->content_crc);
  EXPECT_EQ(scn->policy.get(), base->policy.get());
  EXPECT_EQ(zoo_->full_loads(), 1u);
  // Any spelling of the same scenario hits the same entry.
  const auto again = cache.get("HOPPER+budget:0.4+obs_perturb:0.2", "PPO");
  EXPECT_EQ(again.get(), scn.get());
  // The listing reports the threat-model fields.
  const auto json = cache.render_json();
  EXPECT_NE(json.find("\"scenario\":\"Hopper+obs_perturb:0.2+budget:0.4\""),
            std::string::npos);
  EXPECT_NE(json.find("\"epsilon\":0.2"), std::string::npos);
  EXPECT_NE(json.find("\"budget\":0.4"), std::string::npos);
}

// The satellite fix: a second Zoo lookup of an already-verified checkpoint
// must not re-read the archive.
TEST_F(ModelCacheTest, ZooMemoizesVerifiedCheckpoints) {
  const auto v1 = zoo_->victim_shared("Hopper", "PPO");
  EXPECT_EQ(zoo_->full_loads(), 1u);
  const auto v2 = zoo_->victim_shared("Hopper", "PPO");
  EXPECT_EQ(v1.get(), v2.get());  // same parse, shared ownership
  EXPECT_EQ(zoo_->full_loads(), 1u);
  // A rewritten checkpoint is re-verified exactly once.
  ASSERT_TRUE(nn::save_policy(zoo_->checkpoint_path("Hopper", "PPO"),
                              *make_net(9)));
  const auto v3 = zoo_->victim_shared("Hopper", "PPO");
  EXPECT_NE(v1.get(), v3.get());
  EXPECT_EQ(zoo_->full_loads(), 2u);
  zoo_->victim_shared("Hopper", "PPO");
  EXPECT_EQ(zoo_->full_loads(), 2u);
}

// -------------------------------------------------------------- server ----

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = imap::testing::unique_temp_dir("imap_test_serve");
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);

    ServeOptions opts;
    opts.port = 0;  // ephemeral
    opts.threads = 16;
    opts.coalesce.max_batch = 8;
    opts.cache.ttl_ms = 600'000;
    opts.bench.zoo_dir = dir_;
    opts.bench.scale = 0.01;
    opts.bench.seed = 7;
    server_ = std::make_unique<Server>(opts);

    // Pre-seed the served victim so no test waits on training.
    ASSERT_TRUE(nn::save_policy(
        server_->zoo().checkpoint_path("Hopper", "PPO"), *make_net(1)));
    server_->start();
    ASSERT_GT(server_->port(), 0);
  }
  void TearDown() override {
    server_->stop();
    server_.reset();
    std::filesystem::remove_all(dir_);
  }

  int connect_client() { return connect_to(server_->port()); }

  /// One-shot request on a fresh connection.
  std::string roundtrip(const std::string& method, const std::string& target,
                        const std::string& body = "") {
    return roundtrip_on(server_->port(), method, target, body);
  }

  std::string dir_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServerTest, HealthAndMetrics) {
  const auto health = roundtrip("GET", "/health");
  EXPECT_EQ(status_of(health), 200);
  EXPECT_NE(body_of(health).find("\"status\":\"ok\""), std::string::npos);

  const auto metrics = roundtrip("GET", "/metrics");
  EXPECT_EQ(status_of(metrics), 200);
  EXPECT_NE(body_of(metrics).find("imap_serve_requests_total"),
            std::string::npos);
  EXPECT_NE(body_of(metrics).find("imap_serve_infer_latency_us_p99"),
            std::string::npos);
}

TEST_F(ServerTest, InferIsBitIdenticalToDirectQuery) {
  const auto obs = make_obs(77);
  const auto resp = roundtrip("POST", "/infer?env=Hopper", format_row(obs));
  ASSERT_EQ(status_of(resp), 200);
  // Compare against a handle built exactly like the server's (int8 default).
  const auto direct =
      rl::PolicyHandle::serving(make_net(1), /*quantized=*/true);
  EXPECT_EQ(body_of(resp), format_row(direct.query(obs)));
}

TEST_F(ServerTest, MultiRowBodyIsOneBatch) {
  std::string body;
  for (std::uint64_t i = 0; i < 3; ++i) body += format_row(make_obs(i));
  const auto resp = roundtrip("POST", "/infer?env=Hopper", body);
  ASSERT_EQ(status_of(resp), 200);
  const auto direct =
      rl::PolicyHandle::serving(make_net(1), /*quantized=*/true);
  std::string expect;
  for (std::uint64_t i = 0; i < 3; ++i)
    expect += format_row(direct.query(make_obs(i)));
  EXPECT_EQ(body_of(resp), expect);
  EXPECT_GE(server_->metrics().infer_rows.get(), 3u);
}

TEST_F(ServerTest, ConcurrentClientsCoalesceAndStayBitIdentical) {
  constexpr std::size_t kClients = 16;
  const auto direct =
      rl::PolicyHandle::serving(make_net(1), /*quantized=*/true);
  std::vector<std::string> got(kClients);
  ThreadPool pool(kClients + 1);
  ScopedPool scope(pool);
  parallel_for(
      kClients,
      [&](std::size_t i) {
        const int fd = connect_client();
        const std::string row = format_row(make_obs(1000 + i));
        std::string req =
            "POST /infer?env=Hopper HTTP/1.1\r\nContent-Length: " +
            std::to_string(row.size()) + "\r\n\r\n" + row;
        EXPECT_TRUE(send_all(fd, req));
        got[i] = body_of(read_response(fd));
        ::close(fd);
      },
      1);
  for (std::size_t i = 0; i < kClients; ++i)
    EXPECT_EQ(got[i], format_row(direct.query(make_obs(1000 + i))))
        << "client " << i;
  // Cross-connection gathering actually happened.
  EXPECT_GT(server_->metrics().batch_size.max(), 1u);
}

TEST_F(ServerTest, ErrorPaths) {
  EXPECT_EQ(status_of(roundtrip("POST", "/infer", "1 2 3\n")), 400);
  EXPECT_EQ(status_of(roundtrip("POST", "/infer?env=Hopper", "1 2\n")), 400);
  EXPECT_EQ(status_of(roundtrip("POST", "/infer?env=Hopper", "a b c\n")), 400);
  // A non-finite observation has no int8 code: malformed, like text.
  for (const char* row :
       {"nan 0 0 0 0 0 0 0 0 0 0\n", "0 0 0 inf 0 0 0 0 0 0 0\n"})
    EXPECT_EQ(status_of(roundtrip("POST", "/infer?env=Hopper", row)), 400);
  EXPECT_EQ(status_of(roundtrip("GET", "/infer?env=Hopper")), 405);
  EXPECT_EQ(status_of(roundtrip("GET", "/no/such/route")), 404);
  EXPECT_EQ(status_of(roundtrip("GET", "/attack/status?id=99")), 404);

  // /attack/train checks every parameter before a job exists.
  for (const char* target :
       {"/attack/train?env=NoSuchEnv", "/attack/train?env=Ho\"pper",
        "/attack/train?env=Hopper&defense=Bogus",
        "/attack/train?env=Hopper&steps=-5",
        "/attack/train?env=Hopper&episodes=-1",
        "/attack/train?env=Hopper&episodes=4294967297",
        "/attack/train?env=Hopper&steps=99999999999999999999",
        "/attack/train?env=Hopper&steps=12abc",
        "/attack/train?env=Hopper&attack=AP-MARL",
        "/attack/train?env=YouShallNotPass&attack=SA-RL",
        "/attack/train?env=Hopper&scenario=youshallnotpass&attack=SA-RL"})
    EXPECT_EQ(status_of(roundtrip("POST", target)), 400) << target;
  EXPECT_EQ(server_->jobs().total(), 0u);

  // Error bodies stay well-formed JSON whatever the client sent: quotes and
  // backslashes are escaped, control characters become \u00XX.
  EXPECT_EQ(body_of(roundtrip("POST", "/attack/train?env=H\"o\\p\x01")),
            "{\"error\":\"unknown env: H\\\"o\\\\p\\u0001\"}");
}

TEST_F(ServerTest, TornRequestLeavesServerServing) {
  // A client that sends half a request and vanishes mid-connection.
  const int fd = connect_client();
  ASSERT_TRUE(
      send_all(fd, "POST /infer?env=Hopper HTTP/1.1\r\nContent-Length: "
                   "400\r\n\r\npartial"));
  ::close(fd);
  // The loop absorbs the dead connection; unrelated requests keep working.
  const auto health = roundtrip("GET", "/health");
  EXPECT_EQ(status_of(health), 200);
  // Eventually the torn connection is reaped.
  for (int i = 0; i < 50 && server_->metrics().connections_closed.get() == 0;
       ++i)
    sleep_ms(10);
  EXPECT_GE(server_->metrics().connections_closed.get(), 1u);
}

TEST_F(ServerTest, PipelinedRequestsAnswerInOrder) {
  const int fd = connect_client();
  const std::string two =
      "GET /health HTTP/1.1\r\n\r\nGET /models HTTP/1.1\r\n\r\n";
  ASSERT_TRUE(send_all(fd, two));
  std::string carry;
  const std::string first = read_response(fd, &carry);
  EXPECT_NE(body_of(first).find("\"status\":\"ok\""), std::string::npos);
  const std::string second = read_response(fd, &carry);
  EXPECT_EQ(status_of(second), 200);
  ::close(fd);
}

TEST_F(ServerTest, CacheMissGoesToThePoolWhileHealthAnswers) {
  // The Walker2d victim is not resident and its build is held: the /infer
  // waits on the pool while the loop keeps answering.
  const auto walker = env::make_training_env("Walker2d");
  const std::string ckpt = server_->zoo().checkpoint_path("Walker2d", "PPO");
  auto lock = std::make_unique<proc::FileLock>(ckpt + ".lock");
  const int fd = connect_client();
  const auto obs = make_obs(8, walker->obs_dim());
  ASSERT_TRUE(send_all(
      fd, http_request("POST", "/infer?env=Walker2d", format_row(obs))));
  ASSERT_TRUE(eventually(
      [&] { return server_->metrics().pool_tasks.get() == 1u; }));
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(status_of(roundtrip("GET", "/health")), 200);
  EXPECT_EQ(server_->metrics().infer_rows.get(), 0u);  // still waiting

  const auto net = make_net(3, walker->obs_dim(), walker->act_dim());
  ASSERT_TRUE(nn::save_policy(ckpt, *net));
  lock.reset();
  EXPECT_EQ(body_of(read_response(fd)),
            format_row(rl::PolicyHandle::serving(net, true).query(obs)));
  ::close(fd);
  EXPECT_EQ(server_->metrics().cache_misses.get(), 1u);
  EXPECT_GE(server_->metrics().inline_requests.get(), 4u);
}

TEST_F(ServerTest, LargeResponseArrivesWholeToALateReader) {
  // A response far larger than the client's receive buffer, read only after
  // the server has long had it ready: the loop must keep the rest until the
  // socket has room, not count a full buffer as a dead peer.
  constexpr std::size_t kRows = 100'000;
  // Short tokens keep the 100k-row request under kMaxRequestBytes; the
  // answer rows are full-precision, about 6 MB in all.
  const std::vector<double> obs = {0.5,  -0.5, 1.0, -1.0, 0.25, -0.25,
                                   0.0,  2.0,  -2.0, 0.75, -0.75};
  const std::string row = format_row(obs);
  std::string body;
  body.reserve(row.size() * kRows);
  for (std::size_t i = 0; i < kRows; ++i) body += row;

  const int fd = connect_to(server_->port(), /*rcvbuf=*/4096);
  ASSERT_TRUE(send_all(fd, http_request("POST", "/infer?env=Hopper", body)));
  ASSERT_TRUE(eventually(
      [&] { return server_->metrics().infer_rows.get() == kRows; }));
  sleep_ms(1000);

  const std::string resp = read_response(fd);
  ::close(fd);
  ASSERT_EQ(status_of(resp), 200);
  const std::string expect_row = format_row(
      rl::PolicyHandle::serving(make_net(1), /*quantized=*/true).query(obs));
  const std::string got = body_of(resp);
  ASSERT_EQ(got.size(), expect_row.size() * kRows);
  for (std::size_t i = 0; i < kRows; ++i)
    ASSERT_EQ(got.compare(i * expect_row.size(), expect_row.size(), expect_row),
              0)
        << "row " << i;
  EXPECT_EQ(server_->metrics().write_errors.get(), 0u);
}

TEST_F(ServerTest, PipeliningNonReaderDoesNotStallOtherConnections) {
  // A client pipelines requests whose answers overflow its socket and never
  // reads them. Its connection waits for room; every other one is served.
  const int hog = connect_client();
  std::string burst;
  for (int i = 0; i < 2'000; ++i) burst += http_request("GET", "/metrics");
  const ssize_t sent =
      ::send(hog, burst.data(), burst.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
  ASSERT_GT(sent, 0);
  ASSERT_TRUE(eventually(
      [&] { return server_->metrics().requests_total.get() >= 50u; }));
  for (int i = 0; i < 3; ++i) {
    const auto health = roundtrip("GET", "/health");
    EXPECT_EQ(status_of(health), 200);
  }
  const auto obs = make_obs(5);
  EXPECT_EQ(body_of(roundtrip("POST", "/infer?env=Hopper", format_row(obs))),
            format_row(
                rl::PolicyHandle::serving(make_net(1), true).query(obs)));
  ::close(hog);
}

TEST_F(ServerTest, ModelsLifecycleOverHttp) {
  roundtrip("POST", "/infer?env=Hopper", format_row(make_obs(1)));
  auto listing = body_of(roundtrip("GET", "/models"));
  EXPECT_NE(listing.find("\"env\":\"Hopper\""), std::string::npos);
  EXPECT_EQ(status_of(roundtrip("POST", "/models/invalidate?env=Hopper")),
            200);
  listing = body_of(roundtrip("GET", "/models"));
  EXPECT_EQ(listing, "[]");
}

TEST_F(ServerTest, ScenarioInferServesBaseVictimAndReportsThreatModel) {
  const auto obs = make_obs(33);
  const auto resp = roundtrip("POST", "/infer?scenario=hopper+obs_perturb:0.2",
                              format_row(obs));
  ASSERT_EQ(status_of(resp), 200);
  // The scenario resolves to its base env's checkpoint — same answers as a
  // plain Hopper infer, bit for bit.
  const auto direct =
      rl::PolicyHandle::serving(make_net(1), /*quantized=*/true);
  EXPECT_EQ(body_of(resp), format_row(direct.query(obs)));

  const auto listing = body_of(roundtrip("GET", "/models"));
  EXPECT_NE(listing.find("\"scenario\":\"Hopper+obs_perturb:0.2\""),
            std::string::npos);
  EXPECT_NE(listing.find("\"env\":\"Hopper\""), std::string::npos);
  EXPECT_NE(listing.find("\"epsilon\":0.2"), std::string::npos);
  EXPECT_NE(listing.find("\"budget\":0"), std::string::npos);

  // A malformed scenario is a 400, never a 500 (and never a training run).
  EXPECT_EQ(status_of(roundtrip("POST", "/infer?scenario=hopper+bogus:1",
                                format_row(obs))),
            400);
}

TEST_F(ServerTest, AttackTrainJobRunsToCompletion) {
  const auto resp = roundtrip(
      "POST", "/attack/train?env=Hopper&attack=Random&steps=512&episodes=2");
  ASSERT_EQ(status_of(resp), 202);
  const std::string body = resp.substr(resp.find("\"id\":") + 5);
  const long long id = std::atoll(body.c_str());
  ASSERT_GE(id, 1);

  std::string state;
  for (int i = 0; i < 600; ++i) {
    const auto status = body_of(
        roundtrip("GET", "/attack/status?id=" + std::to_string(id)));
    if (status.find("\"state\":\"done\"") != std::string::npos) {
      state = status;
      break;
    }
    ASSERT_EQ(status.find("\"state\":\"failed\""), std::string::npos)
        << status;
    sleep_ms(100);
  }
  ASSERT_FALSE(state.empty()) << "job did not finish in time";
  EXPECT_NE(state.find("\"outcome\":"), std::string::npos);
  EXPECT_GE(server_->metrics().jobs_finished.get(), 1u);
}

}  // namespace
}  // namespace imap::serve
