#include <gtest/gtest.h>

#include "common/stats.h"
#include "core/rnd.h"

namespace imap::core {
namespace {

rl::RolloutBuffer cluster(double center, std::size_t n, Rng& rng,
                          double sd = 0.1) {
  rl::RolloutBuffer buf;
  for (std::size_t i = 0; i < n; ++i) {
    auto s = rng.normal_vec(3, 0.0, sd);
    s[0] += center;
    buf.add(std::move(s), {0.0}, 0.0, 0.0, 0.0);
  }
  return buf;
}

/// Mean novelty over the buffer's states, read from the batched sweep.
double mean_novelty(RndNovelty& rnd, rl::RolloutBuffer& buf) {
  rnd.score(buf);
  return mean(buf.rew_i);
}

TEST(Rnd, NoveltyIsNonNegative) {
  Rng rng(3);
  RndNovelty rnd(3, 8, rng);
  auto buf = cluster(0.0, 20, rng, /*sd=*/1.0);
  rnd.score(buf);
  for (const double v : buf.rew_i) EXPECT_GE(v, 0.0);
}

TEST(Rnd, FamiliarityReducesNovelty) {
  Rng rng(5);
  RndNovelty rnd(3, 8, rng);
  auto buf = cluster(0.0, 256, rng);
  const double before = mean_novelty(rnd, buf);
  for (int pass = 0; pass < 30; ++pass) rnd.update(buf);
  const double after = mean_novelty(rnd, buf);
  EXPECT_LT(after, 0.5 * before);
}

TEST(Rnd, NovelRegionStaysNovel) {
  Rng rng(7);
  RndNovelty rnd(3, 8, rng);
  auto buf = cluster(0.0, 256, rng);
  for (int pass = 0; pass < 30; ++pass) rnd.update(buf);

  // States far from the training cluster keep a larger error than the
  // cluster itself.
  Rng qrng(9);
  auto near = cluster(0.0, 32, qrng);
  auto far = cluster(4.0, 32, qrng);
  EXPECT_GT(mean_novelty(rnd, far), mean_novelty(rnd, near));
}

TEST(Rnd, ComputeFillsIntrinsicChannel) {
  Rng rng(11);
  RndNovelty rnd(3, 8, rng);
  auto buf = cluster(0.0, 64, rng);
  rnd.compute(buf);
  EXPECT_GT(mean(buf.rew_i), 0.0);
}

TEST(Rnd, ExhibitsTheForgettingProblem) {
  // The failure mode the paper cites as the reason to prefer KNN: after the
  // predictor is re-trained on a NEW region, the OLD region's novelty creeps
  // back up (catastrophic forgetting), which would re-reward already
  // explored states.
  Rng rng(13);
  RndNovelty rnd(3, 8, rng);
  auto region_a = cluster(0.0, 256, rng);
  for (int pass = 0; pass < 150; ++pass) rnd.update(region_a);
  rl::RolloutBuffer probe_a;
  for (int i = 0; i < 64; ++i)
    probe_a.add(region_a.obs[i], {0.0}, 0.0, 0.0, 0.0);
  auto mean_novelty_a = [&] { return mean_novelty(rnd, probe_a); };
  const double a_when_fresh = mean_novelty_a();

  auto region_b = cluster(6.0, 256, rng);
  for (int pass = 0; pass < 150; ++pass) rnd.update(region_b);
  const double a_after_b = mean_novelty_a();

  EXPECT_GT(a_after_b, 1.2 * a_when_fresh);
}

}  // namespace
}  // namespace imap::core
