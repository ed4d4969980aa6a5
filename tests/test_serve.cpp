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

// ----------------------------------------------------------- coalescer ----

class CoalescerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = imap::testing::unique_temp_dir("imap_test_coalesce");
    std::filesystem::remove_all(dir_);
    zoo_ = std::make_unique<core::Zoo>(dir_, 0.01, 7);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::shared_ptr<const ServedModel> model(ModelCache& cache,
                                           std::uint64_t seed,
                                           const std::string& env = "Hopper") {
    return cache.put(env, "PPO", make_net(seed));
  }

  std::string dir_;
  std::unique_ptr<core::Zoo> zoo_;
};

TEST_F(CoalescerTest, ScatterGatherBitIdenticalToDirectQuery) {
  ServeMetrics metrics;
  ModelCache cache(*zoo_, {}, &metrics);
  const auto m = model(cache, 11);

  Coalescer::Options copts;
  copts.max_batch = 16;
  copts.max_wait_us = 200'000;
  Coalescer co(copts, &metrics);

  // Admitted up front, as the server's poll loop does: the leader then
  // knows followers are coming, however late their threads start.
  constexpr std::size_t kClients = 16;
  std::vector<Coalescer::Admission> admissions;
  for (std::size_t i = 0; i < kClients; ++i) admissions.push_back(co.admit());
  std::vector<std::vector<double>> got(kClients);
  ThreadPool pool(kClients + 1);
  ScopedPool scope(pool);
  parallel_for(
      kClients,
      [&](std::size_t i) {
        got[i] = co.infer(m, make_obs(i), std::move(admissions[i]));
      },
      1);

  for (std::size_t i = 0; i < kClients; ++i)
    EXPECT_EQ(got[i], m->handle.query(make_obs(i))) << "client " << i;
  // The rows really were coalesced: fewer forwards than clients.
  EXPECT_LT(metrics.coalesced_batches.get(), kClients);
  EXPECT_GT(metrics.batch_size.max(), 1u);
  EXPECT_LE(metrics.batch_size.max(), kClients);
  EXPECT_EQ(metrics.batch_size.sum(), kClients);
}

TEST_F(CoalescerTest, DeadlineFlushesPartialBatch) {
  ServeMetrics metrics;
  ModelCache cache(*zoo_, {}, &metrics);
  const auto m = model(cache, 3);

  Coalescer::Options copts;
  copts.max_batch = 64;  // never reachable with one client
  copts.max_wait_us = 20'000;
  Coalescer co(copts, &metrics);

  // An admitted request that never joins keeps the leader waiting.
  const Coalescer::Admission never_joins = co.admit();
  const auto obs = make_obs(42);
  EXPECT_EQ(co.infer(m, obs), m->handle.query(obs));
  EXPECT_EQ(metrics.coalesced_batches.get(), 1u);
  EXPECT_EQ(metrics.batch_size.max(), 1u);  // flushed by the deadline alone
  EXPECT_EQ(metrics.coalesce_wait_us.count(), 1u);
  EXPECT_GE(metrics.coalesce_wait_us.max(), 19'000u);
}

/// Microseconds since `t0`, for generously bounded wait assertions.
long long us_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Runs `body` on a worker thread; `done()` reports whether it returned.
class Background {
 public:
  explicit Background(std::function<void()> body) {
    pool_.submit([this, body = std::move(body)] {
      body();
      done_.store(true);
    });
  }
  bool done() const { return done_.load(); }
  /// Poll until done, for at most `ms` milliseconds.
  bool wait(int ms) {
    for (int i = 0; i < ms && !done(); ++i) sleep_ms(1);
    return done();
  }

 private:
  std::atomic<bool> done_{false};
  ThreadPool pool_{2};
};

constexpr long long kLongWaitUs = 10'000'000;  // 10 s: never reached here

TEST_F(CoalescerTest, LoneRequestDoesNotWaitForDeadline) {
  ServeMetrics metrics;
  ModelCache cache(*zoo_, {}, &metrics);
  const auto m = model(cache, 4);
  Coalescer::Options copts;
  copts.max_wait_us = kLongWaitUs;
  Coalescer co(copts, &metrics);

  const auto obs = make_obs(8);
  auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(co.infer(m, obs), m->handle.query(obs));
  EXPECT_LT(us_since(t0), 1'000'000);
  t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(co.infer(m, obs, co.admit()), m->handle.query(obs));
  EXPECT_LT(us_since(t0), 1'000'000);
  EXPECT_EQ(metrics.coalesced_batches.get(), 2u);
}

TEST_F(CoalescerTest, UnjoinedAdmissionHoldsLeaderUntilReleased) {
  ServeMetrics metrics;
  ModelCache cache(*zoo_, {}, &metrics);
  const auto m = model(cache, 12);
  Coalescer::Options copts;
  copts.max_wait_us = kLongWaitUs;
  Coalescer co(copts, &metrics);

  Coalescer::Admission pending = co.admit();
  const auto obs = make_obs(3);
  std::vector<double> got;
  const auto t0 = std::chrono::steady_clock::now();
  Background leader([&] { got = co.infer(m, obs); });
  sleep_ms(100);
  EXPECT_FALSE(leader.done());  // still waiting for the admitted request
  pending.release();
  ASSERT_TRUE(leader.wait(5'000));
  EXPECT_LT(us_since(t0), kLongWaitUs / 2);
  EXPECT_EQ(got, m->handle.query(obs));
}

TEST_F(CoalescerTest, WidthMismatchEndsItsAdmission) {
  ServeMetrics metrics;
  ModelCache cache(*zoo_, {}, &metrics);
  const auto m = model(cache, 13);
  Coalescer::Options copts;
  copts.max_wait_us = kLongWaitUs;
  Coalescer co(copts, &metrics);

  EXPECT_THROW(co.infer(m, make_obs(1, 7), co.admit()), CheckError);
  const auto obs = make_obs(2);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(co.infer(m, obs), m->handle.query(obs));
  EXPECT_LT(us_since(t0), 1'000'000);
}

TEST_F(CoalescerTest, LeaderWaitsToMatchPreviousBatch) {
  ServeMetrics metrics;
  ModelCache cache(*zoo_, {}, &metrics);
  const auto m = model(cache, 14);
  Coalescer::Options copts;
  copts.max_batch = 64;
  copts.max_wait_us = kLongWaitUs;
  Coalescer co(copts, &metrics);

  // A batch of 4: all four admitted before any joins.
  {
    std::vector<Coalescer::Admission> admissions;
    for (int i = 0; i < 4; ++i) admissions.push_back(co.admit());
    ThreadPool pool(5);
    ScopedPool scope(pool);
    parallel_for(
        4,
        [&](std::size_t i) {
          (void)co.infer(m, make_obs(i), std::move(admissions[i]));
        },
        1);
  }
  ASSERT_EQ(metrics.coalesced_batches.get(), 1u);
  ASSERT_EQ(metrics.batch_size.max(), 4u);

  // Three rows and nothing admitted: the leader holds out for a fourth.
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::vector<double>> got(4);
  std::vector<std::unique_ptr<Background>> rows;
  for (std::size_t i = 0; i < 3; ++i)
    rows.push_back(std::make_unique<Background>(
        [&, i] { got[i] = co.infer(m, make_obs(10 + i)); }));
  sleep_ms(100);
  for (const auto& r : rows) EXPECT_FALSE(r->done());
  EXPECT_EQ(metrics.coalesced_batches.get(), 1u);

  got[3] = co.infer(m, make_obs(13));
  for (const auto& r : rows) ASSERT_TRUE(r->wait(5'000));
  EXPECT_LT(us_since(t0), kLongWaitUs / 2);
  EXPECT_EQ(metrics.coalesced_batches.get(), 2u);
  EXPECT_EQ(metrics.batch_size.sum(), 8u);
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_EQ(got[i], m->handle.query(make_obs(10 + i))) << "row " << i;
}

TEST_F(CoalescerTest, HotSwapsKeepPerModelStateBounded) {
  ServeMetrics metrics;
  ModelCache cache(*zoo_, {}, &metrics);
  Coalescer co({}, &metrics);
  const auto obs = make_obs(5);
  for (std::uint64_t swap = 0; swap < 20; ++swap) {
    const auto m = model(cache, 300 + swap);  // replaces the previous one
    EXPECT_EQ(co.infer(m, obs), m->handle.query(obs));
  }
  EXPECT_LE(co.tracked_models(), 2u);
}

TEST_F(CoalescerTest, DistinctVictimsNeverShareABatch) {
  ServeMetrics metrics;
  ModelCache cache(*zoo_, {}, &metrics);
  const auto a = model(cache, 100, "Hopper");
  const auto b = model(cache, 200, "Walker2d");

  Coalescer::Options copts;
  copts.max_batch = 8;
  copts.max_wait_us = 50'000;
  Coalescer co(copts, &metrics);

  constexpr std::size_t kClients = 12;
  std::vector<std::vector<double>> got(kClients);
  ThreadPool pool(kClients + 1);
  ScopedPool scope(pool);
  parallel_for(
      kClients,
      [&](std::size_t i) {
        got[i] = co.infer(i % 2 == 0 ? a : b, make_obs(i));
      },
      1);
  for (std::size_t i = 0; i < kClients; ++i) {
    const auto& m = i % 2 == 0 ? a : b;
    EXPECT_EQ(got[i], m->handle.query(make_obs(i))) << "client " << i;
  }
}

TEST_F(CoalescerTest, DisabledModeStaysBitIdentical) {
  ServeMetrics metrics;
  ModelCache cache(*zoo_, {}, &metrics);
  const auto m = model(cache, 5);

  Coalescer::Options copts;
  copts.enabled = false;
  Coalescer co(copts, &metrics);
  const auto obs = make_obs(9);
  EXPECT_EQ(co.infer(m, obs), m->handle.query(obs));
  EXPECT_EQ(metrics.batch_size.max(), 1u);
}

TEST_F(CoalescerTest, RejectsWidthMismatch) {
  ModelCache cache(*zoo_, {});
  const auto m = model(cache, 6);
  Coalescer co({});
  EXPECT_THROW(co.infer(m, make_obs(1, 7)), CheckError);
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
  EXPECT_NE(json.find("\"archive_version\":2"), std::string::npos);
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
    opts.coalesce.max_wait_us = 2'000;
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

  int connect_client() {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(server_->port());
    EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        static_cast<socklen_t>(sizeof addr)),
              0);
    return fd;
  }

  /// Read exactly one HTTP response off `fd` (headers + Content-Length).
  /// `carry` holds bytes past the first response — pipelined replies can
  /// arrive in one segment, and a stateless reader would swallow the second
  /// response and then block forever waiting for bytes already consumed.
  static std::string read_response(int fd, std::string* carry = nullptr) {
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

  static int status_of(const std::string& response) {
    return std::atoi(response.c_str() + 9);
  }

  static std::string body_of(const std::string& response) {
    const std::size_t head_end = response.find("\r\n\r\n");
    return head_end == std::string::npos ? "" : response.substr(head_end + 4);
  }

  /// One-shot request on a fresh connection.
  std::string roundtrip(const std::string& method, const std::string& target,
                        const std::string& body = "") {
    const int fd = connect_client();
    std::string req = method + " " + target + " HTTP/1.1\r\nContent-Length: " +
                      std::to_string(body.size()) + "\r\n\r\n" + body;
    EXPECT_TRUE(send_all(fd, req));
    const std::string resp = read_response(fd);
    ::close(fd);
    return resp;
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
