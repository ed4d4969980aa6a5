#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/config.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "common/stats.h"
#include "common/table.h"

namespace imap {
namespace {

TEST(Rng, DeterministicGivenSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  // Counts exact draw collisions between the two streams, so == is meant.
  for (int i = 0; i < 100; ++i)
    if (a.uniform() == b.uniform()) ++equal;  // imap-check: allow(float-eq)
  EXPECT_LT(equal, 5);
}

TEST(Rng, SplitIsDeterministicAndIndependent) {
  Rng parent(7);
  Rng c1 = parent.split(1);
  Rng c2 = parent.split(2);
  Rng c1_again = Rng(7).split(1);
  EXPECT_DOUBLE_EQ(c1.uniform(), c1_again.uniform());
  EXPECT_NE(c1.uniform(), c2.uniform());
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-2.0, 5.0);
    EXPECT_GE(x, -2.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const int x = rng.uniform_int(0, 3);
    EXPECT_GE(x, 0);
    EXPECT_LE(x, 3);
    saw_lo |= x == 0;
    saw_hi |= x == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMomentsRoughlyCorrect) {
  Rng rng(11);
  const auto v = rng.normal_vec(20000, 1.5, 2.0);
  EXPECT_NEAR(mean(v), 1.5, 0.1);
  EXPECT_NEAR(stddev(v), 2.0, 0.1);
}

TEST(Rng, ZeroStddevNormalIsTheMeanAndAdvancesLikeUnitNormal) {
  Rng zero(13), unit(13);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(zero.normal(2.5, 0.0), 2.5);
    unit.normal(2.5, 1.0);
  }
  EXPECT_EQ(zero.next_u64(), unit.next_u64());
}

TEST(Stats, MeanAndStddev) {
  EXPECT_DOUBLE_EQ(mean({1, 2, 3, 4}), 2.5);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_NEAR(stddev({2, 4, 4, 4, 5, 5, 7, 9}), 2.138, 1e-3);
  EXPECT_DOUBLE_EQ(stddev({5.0}), 0.0);
}

TEST(Stats, Percentile) {
  std::vector<double> xs{5, 1, 3, 2, 4};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 25), 2.0);
}

TEST(Stats, RunningStatMatchesBatch) {
  Rng rng(5);
  const auto xs = rng.normal_vec(500, -1.0, 3.0);
  RunningStat rs;
  for (double x : xs) rs.add(x);
  EXPECT_EQ(rs.count(), xs.size());
  EXPECT_NEAR(rs.mean(), mean(xs), 1e-9);
  // RunningStat reports population variance; convert the sample stddev.
  const double pop_var = stddev(xs) * stddev(xs) * (499.0 / 500.0);
  EXPECT_NEAR(rs.variance(), pop_var, 1e-6);
}

TEST(Stats, SummarizeCountsEpisodes) {
  const auto s = summarize({1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(s.mean, 2.0);
  EXPECT_EQ(s.episodes, 3u);
}

TEST(Table, FormatsAlignedAndCsv) {
  Table t({"a", "b"});
  t.add_row({"x", Table::pm(1.23456, 0.5, 2)});
  t.add_row({"longer", "cell,with,commas"});
  const auto text = t.to_string();
  EXPECT_NE(text.find("longer"), std::string::npos);
  EXPECT_NE(text.find("1.23 ± 0.50"), std::string::npos);
  const auto csv = t.to_csv();
  EXPECT_NE(csv.find("\"cell,with,commas\""), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RejectsRaggedRows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), CheckError);
}

TEST(Serialize, RoundTripsThroughFile) {
  const std::string path = "/tmp/imap_test_roundtrip.bin";
  BinaryWriter w;
  w.write_u64(123);
  w.write_i64(-77);
  w.write_f64(3.14159);
  w.write_string("hello world");
  w.write_vec({1.0, -2.0, 3.5});
  ASSERT_TRUE(w.save(path));

  BinaryReader r;
  ASSERT_TRUE(BinaryReader::load(path, r));
  EXPECT_EQ(r.read_u64(), 123u);
  EXPECT_EQ(r.read_i64(), -77);
  EXPECT_DOUBLE_EQ(r.read_f64(), 3.14159);
  EXPECT_EQ(r.read_string(), "hello world");
  EXPECT_EQ(r.read_vec(), (std::vector<double>{1.0, -2.0, 3.5}));
  EXPECT_TRUE(r.exhausted());
  std::remove(path.c_str());
}

TEST(Serialize, EmptyVectorRoundTrips) {
  BinaryWriter w;
  w.write_vec({});
  BinaryReader r(std::vector<std::uint8_t>(w.buffer()));
  EXPECT_TRUE(r.read_vec().empty());
  EXPECT_TRUE(r.exhausted());
}

TEST(Serialize, MissingFileReturnsFalse) {
  BinaryReader r;
  EXPECT_FALSE(BinaryReader::load("/tmp/definitely_not_here.imap", r));
}

TEST(Serialize, BadMagicThrows) {
  const std::string path = "/tmp/imap_test_badmagic.bin";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("NOTAMAGICHEADERXXXXXXXX", f);
    std::fclose(f);
  }
  BinaryReader r;
  EXPECT_THROW(BinaryReader::load(path, r), CheckError);
  std::remove(path.c_str());
}

TEST(Serialize, TruncatedReadThrows) {
  BinaryWriter w;
  w.write_u64(1);
  BinaryReader r(std::vector<std::uint8_t>(w.buffer()));
  r.read_u64();
  EXPECT_THROW(r.read_f64(), CheckError);
}

TEST(Config, ScaledClampsToMinimum) {
  BenchConfig cfg;
  cfg.scale = 0.001;
  EXPECT_EQ(cfg.scaled(100, 5), 5);
  cfg.scale = 2.0;
  EXPECT_EQ(cfg.scaled(100), 200);
}

TEST(Config, ScaledDoesNotOverflowOnHugeScale) {
  BenchConfig cfg;
  cfg.scale = 1e30;
  EXPECT_EQ(cfg.scaled(100), std::numeric_limits<int>::max());
}

TEST(Config, EnvParsing) {
  EXPECT_EQ(env_string("IMAP_TEST_MISSING", "dflt"), "dflt");
}

TEST(Config, FromEnvReadsWellFormedKnobs) {
  ::setenv("IMAP_BENCH_SCALE", "0.25", 1);
  ::setenv("IMAP_SEED", "12", 1);
  ::setenv("IMAP_SNAPSHOT_EVERY", "3", 1);
  ::setenv("IMAP_HALT_AFTER_ITERS", "1", 1);
  const BenchConfig cfg = BenchConfig::from_env();
  for (const char* knob : {"IMAP_BENCH_SCALE", "IMAP_SEED",
                           "IMAP_SNAPSHOT_EVERY", "IMAP_HALT_AFTER_ITERS"})
    ::unsetenv(knob);
  EXPECT_DOUBLE_EQ(cfg.scale, 0.25);
  EXPECT_EQ(cfg.seed, 12u);
  EXPECT_EQ(cfg.snapshot_every, 3);
  EXPECT_EQ(cfg.halt_after_iters, 1);
}

TEST(Config, FromEnvRejectsMalformedOrOutOfRangeKnobsNamingThem) {
  const std::pair<const char*, const char*> bad[] = {
      {"IMAP_BENCH_SCALE", "abc"},   {"IMAP_BENCH_SCALE", "0"},
      {"IMAP_BENCH_SCALE", "-0.5"},  {"IMAP_BENCH_SCALE", "inf"},
      {"IMAP_BENCH_SCALE", "nan"},   {"IMAP_BENCH_SCALE", "1e999"},
      {"IMAP_BENCH_SCALE", "0.1x"},  {"IMAP_SEED", "-1"},
      {"IMAP_SEED", "1e30"},         {"IMAP_SEED", "7.5"},
      {"IMAP_SNAPSHOT_EVERY", "-1"}, {"IMAP_SNAPSHOT_EVERY", "3000000000"},
      {"IMAP_HALT_AFTER_ITERS", "-2"},
      {"IMAP_HALT_AFTER_ITERS", "99999999999999999999"}};
  for (const auto& [knob, value] : bad) {
    ::setenv(knob, value, 1);
    try {
      BenchConfig::from_env();
      ADD_FAILURE() << knob << "=" << value << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(knob), std::string::npos)
          << e.what();
    }
    ::unsetenv(knob);
  }
}

TEST(Config, ParseIntAcceptsOnlyWholeIntegersInRange) {
  EXPECT_EQ(parse_int("--port", "0", 0, 65535), 0);
  EXPECT_EQ(parse_int("--port", "65535", 0, 65535), 65535);
  EXPECT_EQ(parse_int("K", "-3", -5, 5), -3);
  for (const char* bad : {"", "abc", "12x", " 12", "12 ", "+12", "1.5",
                          "65536", "-1", "99999999999999999999"})
    EXPECT_THROW(parse_int("--port", bad, 0, 65535), std::invalid_argument)
        << "'" << bad << "'";
  try {
    parse_int("IMAP_SERVE_PORT", "70000", 0, 65535);
    FAIL() << "out-of-range port accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "IMAP_SERVE_PORT: '70000' is not an integer in [0, 65535]");
  }
}

TEST(Config, EnvIntFallsBackWhenUnsetAndRejectsBadValues) {
  ::unsetenv("IMAP_TEST_INT");
  EXPECT_EQ(env_int("IMAP_TEST_INT", 8, 1, 256), 8);
  ::setenv("IMAP_TEST_INT", "", 1);
  EXPECT_EQ(env_int("IMAP_TEST_INT", 8, 1, 256), 8);
  ::setenv("IMAP_TEST_INT", "32", 1);
  EXPECT_EQ(env_int("IMAP_TEST_INT", 8, 1, 256), 32);
  ::setenv("IMAP_TEST_INT", "0", 1);
  EXPECT_THROW(env_int("IMAP_TEST_INT", 8, 1, 256), std::invalid_argument);
  ::setenv("IMAP_TEST_INT", "banana", 1);
  try {
    env_int("IMAP_TEST_INT", 8, 1, 256);
    FAIL() << "junk accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("IMAP_TEST_INT"), std::string::npos);
  }
  ::unsetenv("IMAP_TEST_INT");
}

}  // namespace
}  // namespace imap
