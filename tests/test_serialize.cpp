// Archive container format (magic / version / sections / CRC trailer) and
// the save_state/load_state round-trip contract of every stateful component.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "core/bias_reduction.h"
#include "core/knn.h"
#include "nn/adam.h"
#include "nn/checkpoint.h"
#include "nn/gaussian.h"
#include "nn/mlp.h"
#include "temp_dir.h"

namespace imap {
namespace {

class SerializeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::unique_temp_dir("imap_test_serialize");
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const { return dir_ + "/" + name; }

  static std::vector<std::uint8_t> slurp(const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }

  static void spit(const std::string& p, const std::vector<std::uint8_t>& b) {
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(b.data()),
              static_cast<std::streamsize>(b.size()));
  }

  std::string dir_;
};

TEST_F(SerializeTest, ArchiveMultiSectionRoundTrip) {
  ArchiveWriter w;
  w.section("alpha").write_i64(-7);
  w.section("beta/gamma").write_string("hello");
  w.section("alpha").write_f64(2.5);  // repeated name appends
  ASSERT_TRUE(w.save(path("a.snap")));

  ArchiveReader a;
  ASSERT_TRUE(ArchiveReader::load(path("a.snap"), a));
  EXPECT_EQ(a.version(), kFormatVersion);
  EXPECT_EQ(a.section_names(),
            (std::vector<std::string>{"alpha", "beta/gamma"}));
  EXPECT_TRUE(a.has("alpha"));
  EXPECT_FALSE(a.has("delta"));

  auto alpha = a.section("alpha");
  EXPECT_EQ(alpha.read_i64(), -7);
  EXPECT_EQ(alpha.read_f64(), 2.5);
  EXPECT_TRUE(alpha.exhausted());
  auto bg = a.section("beta/gamma");
  EXPECT_EQ(bg.read_string(), "hello");
}

TEST_F(SerializeTest, ArchiveSkipsUnknownSections) {
  // A reader only ever asks for the sections it knows — extra sections from
  // a newer writer (same format version) are simply never touched.
  ArchiveWriter w;
  w.section("known").write_u64(1);
  w.section("future/extension").write_vec({1.0, 2.0, 3.0});
  ASSERT_TRUE(w.save(path("f.snap")));

  ArchiveReader a;
  ASSERT_TRUE(ArchiveReader::load(path("f.snap"), a));
  auto known = a.section("known");
  EXPECT_EQ(known.read_u64(), 1u);
}

TEST_F(SerializeTest, ArchiveMissingFileAndMissingSection) {
  ArchiveReader a;
  EXPECT_FALSE(ArchiveReader::load(path("nope.snap"), a));

  ArchiveWriter w;
  w.section("only").write_u64(0);
  ASSERT_TRUE(w.save(path("o.snap")));
  ASSERT_TRUE(ArchiveReader::load(path("o.snap"), a));
  EXPECT_THROW(a.section("absent"), CheckError);
}

TEST_F(SerializeTest, ArchiveRejectsBitFlip) {
  ArchiveWriter w;
  w.section("payload").write_vec(std::vector<double>(64, 1.25));
  ASSERT_TRUE(w.save(path("c.snap")));

  auto bytes = slurp(path("c.snap"));
  ASSERT_GT(bytes.size(), 40u);
  bytes[bytes.size() / 2] ^= 0x01;  // single flipped bit anywhere
  spit(path("c.snap"), bytes);

  ArchiveReader a;
  EXPECT_THROW(ArchiveReader::load(path("c.snap"), a), CheckError);
}

TEST_F(SerializeTest, ArchiveRejectsTruncation) {
  ArchiveWriter w;
  w.section("payload").write_vec(std::vector<double>(64, 1.25));
  ASSERT_TRUE(w.save(path("t.snap")));

  auto bytes = slurp(path("t.snap"));
  bytes.resize(bytes.size() - 3);  // torn tail
  spit(path("t.snap"), bytes);

  ArchiveReader a;
  EXPECT_THROW(ArchiveReader::load(path("t.snap"), a), CheckError);
}

TEST_F(SerializeTest, ArchiveRejectsOldFormatVersion) {
  // Fabricate a structurally valid v1 archive: magic | version 1 | zero
  // sections | correct CRC. Every loader must refuse it with a CheckError —
  // never a silent misread of old zoo/cache artifacts.
  std::vector<std::uint8_t> bytes{'I', 'M', 'A', 'P'};
  auto put_u64 = [&bytes](std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
      bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  put_u64(1);  // old format version
  put_u64(0);  // no sections
  const std::uint32_t crc = crc32(bytes.data(), bytes.size());
  for (int i = 0; i < 4; ++i)
    bytes.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
  spit(path("old.pol"), bytes);

  ArchiveReader a;
  EXPECT_THROW(ArchiveReader::load(path("old.pol"), a), CheckError);
  // The zoo loads policies through this path: an old-format checkpoint file
  // surfaces as a clear error, not a garbage network.
  EXPECT_THROW(nn::load_policy(path("old.pol")), CheckError);
}

TEST_F(SerializeTest, AtomicSaveLeavesNoTempFile) {
  ArchiveWriter w;
  w.section("s").write_u64(9);
  ASSERT_TRUE(w.save(path("atomic.snap")));
  EXPECT_TRUE(std::filesystem::exists(path("atomic.snap")));
  EXPECT_FALSE(std::filesystem::exists(path("atomic.snap") + ".tmp"));

  // Unwritable destination: reports failure, leaves nothing behind.
  const std::string bad = dir_ + "/no_such_dir/x.snap";
  EXPECT_FALSE(w.save(bad));
  EXPECT_FALSE(std::filesystem::exists(bad));
  EXPECT_FALSE(std::filesystem::exists(bad + ".tmp"));
}

TEST_F(SerializeTest, BinaryWriterSaveIsASingleSectionArchive) {
  BinaryWriter w;
  w.write_u64(123);
  ASSERT_TRUE(w.save(path("legacy.pol")));

  ArchiveReader a;
  ASSERT_TRUE(ArchiveReader::load(path("legacy.pol"), a));
  EXPECT_EQ(a.section_names(), std::vector<std::string>{"data"});
  auto data = a.section("data");
  EXPECT_EQ(data.read_u64(), 123u);
}

TEST_F(SerializeTest, RngRoundTripContinuesStream) {
  Rng original(42);
  for (int i = 0; i < 100; ++i) original.uniform();

  BinaryWriter w;
  original.save_state(w);
  BinaryReader r(w.buffer());
  Rng restored(0);
  restored.load_state(r);

  EXPECT_EQ(restored.seed(), original.seed());
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(restored.next_u64(), original.next_u64()) << "draw " << i;
  }
  // split depends only on the seed, so derived streams also agree.
  EXPECT_EQ(restored.split(5).next_u64(), original.split(5).next_u64());
}

TEST_F(SerializeTest, MlpAndAdamRoundTripResumeIdentically) {
  Rng rng(3);
  nn::Mlp net({4, 8, 2}, rng);
  nn::Adam opt(net.params().size());

  // A few updates to give the moments non-trivial state.
  std::vector<double> grads(net.params().size(), 0.01);
  for (int i = 0; i < 3; ++i) opt.step(net.params(), grads);

  BinaryWriter w;
  net.save_state(w);
  opt.save_state(w);

  Rng rng2(99);  // different init: every weight overwritten by load
  nn::Mlp net2({4, 8, 2}, rng2);
  nn::Adam opt2(net2.params().size());
  BinaryReader r(w.buffer());
  net2.load_state(r);
  opt2.load_state(r);
  EXPECT_TRUE(r.exhausted());

  EXPECT_EQ(net2.params(), net.params());
  // The next update sequence must be bit-identical.
  for (int i = 0; i < 3; ++i) {
    opt.step(net.params(), grads);
    opt2.step(net2.params(), grads);
  }
  EXPECT_EQ(net2.params(), net.params());
  EXPECT_EQ(opt2.iterations(), opt.iterations());
}

TEST_F(SerializeTest, MlpRejectsArchitectureMismatch) {
  Rng rng(3);
  nn::Mlp net({4, 8, 2}, rng);
  BinaryWriter w;
  net.save_state(w);

  nn::Mlp other({4, 6, 2}, rng);
  BinaryReader r(w.buffer());
  EXPECT_THROW(other.load_state(r), CheckError);

  nn::Adam opt(5);
  BinaryWriter wo;
  opt.save_state(wo);
  nn::Adam opt2(6);
  BinaryReader ro(wo.buffer());
  EXPECT_THROW(opt2.load_state(ro), CheckError);
}

TEST_F(SerializeTest, GaussianPolicyRoundTrip) {
  Rng rng(11);
  nn::GaussianPolicy p(4, 2, {8}, rng);
  p.clamp_log_std(-1.0, -1.0);  // distinctive log_std

  BinaryWriter w;
  p.save_state(w);
  Rng rng2(12);
  nn::GaussianPolicy q(4, 2, {8}, rng2);
  BinaryReader r(w.buffer());
  q.load_state(r);

  EXPECT_EQ(q.flat_params(), p.flat_params());
  EXPECT_EQ(q.log_std(), p.log_std());
}

TEST_F(SerializeTest, KnnBufferRoundTripContinuesReservoir) {
  Rng rng(7);
  core::KnnBuffer knn(3, 16, 2, Rng(13));
  // Overfill so the reservoir-sampling counters matter.
  for (int i = 0; i < 40; ++i) knn.add(rng.normal_vec(3));

  BinaryWriter w;
  knn.save_state(w);
  core::KnnBuffer restored(3, 16, 2, Rng(0));
  BinaryReader r(w.buffer());
  restored.load_state(r);

  const auto q = rng.normal_vec(3);
  EXPECT_EQ(restored.knn_distance(q), knn.knn_distance(q));
  EXPECT_EQ(restored.total_added(), knn.total_added());

  // Continued adds follow the exact same reservoir replacement sequence.
  Rng feed_a(21), feed_b(21);
  for (int i = 0; i < 40; ++i) {
    knn.add(feed_a.normal_vec(3));
    restored.add(feed_b.normal_vec(3));
  }
  EXPECT_EQ(restored.knn_distance(q), knn.knn_distance(q));

  core::KnnBuffer wrong(4, 16, 2, Rng(0));
  BinaryReader r2(w.buffer());
  EXPECT_THROW(wrong.load_state(r2), CheckError);
}

TEST_F(SerializeTest, KnnBufferWireFormatIsRowMajorInsertionOrder) {
  // The wire format is independent of the in-memory layout: an
  // under-capacity buffer saves its rows in insertion order, row-major.
  core::KnnBuffer knn(3, 16, 2, Rng(13));
  Rng rng(7);
  std::vector<double> rows;
  for (int i = 0; i < 11; ++i) {
    const auto s = rng.normal_vec(3);
    rows.insert(rows.end(), s.begin(), s.end());
    knn.add(s);
  }
  BinaryWriter got;
  knn.save_state(got);

  BinaryWriter want;
  want.write_u64(3);   // dim
  want.write_u64(16);  // capacity
  want.write_u64(2);   // k
  Rng(13).save_state(want);  // under capacity no reservoir draw was made
  want.write_u64(11);  // stored rows
  want.write_u64(11);  // rows ever added
  want.write_vec(rows);
  EXPECT_EQ(got.buffer(), want.buffer());
}

TEST_F(SerializeTest, KnnBufferRejectsCorruptRowCounts) {
  auto image = [](std::uint64_t size, std::uint64_t total,
                  const std::vector<double>& rows) {
    BinaryWriter w;
    w.write_u64(8);   // dim
    w.write_u64(16);  // capacity
    w.write_u64(1);   // k
    Rng(0).save_state(w);
    w.write_u64(size);
    w.write_u64(total);
    w.write_vec(rows);
    return w;
  };
  auto load = [](const BinaryWriter& w) {
    core::KnnBuffer knn(8, 16, 1, Rng(0));
    BinaryReader r(w.buffer());
    knn.load_state(r);
    return knn;
  };
  // 2^61 rows · 8 columns wraps to 0 in 64 bits and would match the empty
  // row vector; the row count must be bounded before the product.
  EXPECT_THROW(load(image(std::uint64_t{1} << 61, 1, {})), CheckError);
  // More rows than were ever added, or an under-full buffer that dropped
  // rows, cannot come from add().
  EXPECT_THROW(load(image(4, 2, std::vector<double>(32, 0.0))), CheckError);
  EXPECT_THROW(load(image(4, 9, std::vector<double>(32, 0.0))), CheckError);
  // The consistent images load.
  EXPECT_EQ(load(image(4, 4, std::vector<double>(32, 0.0))).size(), 4u);
  EXPECT_EQ(load(image(16, 40, std::vector<double>(128, 0.0))).size(), 16u);
}

TEST_F(SerializeTest, BiasReductionRoundTripContinuesDual) {
  core::BiasReduction br(true, 5.0, 1.0);
  for (int i = 0; i < 5; ++i) br.observe(0.1 * i);

  BinaryWriter w;
  br.save_state(w);
  core::BiasReduction restored(true, 5.0, 1.0);
  BinaryReader r(w.buffer());
  restored.load_state(r);

  EXPECT_EQ(restored.tau(), br.tau());
  br.observe(0.9);
  restored.observe(0.9);
  EXPECT_EQ(restored.tau(), br.tau());
}

}  // namespace
}  // namespace imap
