#include <gtest/gtest.h>

#include <filesystem>

#include "core/zoo.h"
#include "env/registry.h"
#include "temp_dir.h"

namespace imap::core {
namespace {

class ZooTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = imap::testing::unique_temp_dir("imap_test_zoo");
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
};

TEST_F(ZooTest, TrainsAndCachesVictim) {
  // A microscopic scale keeps this a smoke test of the train→save→load
  // pipeline, not of victim quality.
  Zoo zoo(dir_, /*scale=*/0.01, /*seed=*/7);
  const auto v1 = zoo.victim("Hopper", "PPO");
  EXPECT_EQ(v1.obs_dim(), 11u);
  // Second call must come from the cache: identical parameters.
  const auto v2 = zoo.victim("Hopper", "PPO");
  EXPECT_EQ(v1.flat_params(), v2.flat_params());
  // Exactly one checkpoint file appeared.
  int files = 0;
  for ([[maybe_unused]] const auto& e :
       std::filesystem::directory_iterator(dir_))
    ++files;
  EXPECT_EQ(files, 1);
}

TEST_F(ZooTest, SparseTasksShareTheirDenseVictim) {
  Zoo zoo(dir_, 0.01, 7);
  const auto dense = zoo.victim("Hopper", "PPO");
  const auto sparse = zoo.victim("SparseHopper", "PPO");
  // Same training env ⇒ same cached checkpoint.
  EXPECT_EQ(dense.flat_params(), sparse.flat_params());
}

TEST_F(ZooTest, DistinctDefensesAreDistinctVictims) {
  Zoo zoo(dir_, 0.01, 7);
  const auto vanilla = zoo.victim("Hopper", "PPO");
  const auto sa = zoo.victim("Hopper", "SA");
  EXPECT_NE(vanilla.flat_params(), sa.flat_params());
}

TEST_F(ZooTest, DeterministicAcrossZooInstances) {
  Zoo zoo_a(dir_, 0.01, 7);
  const auto v1 = zoo_a.victim("Walker2d", "PPO");
  std::filesystem::remove_all(dir_);
  Zoo zoo_b(dir_, 0.01, 7);
  const auto v2 = zoo_b.victim("Walker2d", "PPO");
  EXPECT_EQ(v1.flat_params(), v2.flat_params());
}

TEST_F(ZooTest, SeedChangesVictim) {
  Zoo zoo_a(dir_ + "_a", 0.01, 7);
  Zoo zoo_b(dir_ + "_b", 0.01, 8);
  const auto v1 = zoo_a.victim("Hopper", "PPO");
  const auto v2 = zoo_b.victim("Hopper", "PPO");
  EXPECT_NE(v1.flat_params(), v2.flat_params());
  std::filesystem::remove_all(dir_ + "_a");
  std::filesystem::remove_all(dir_ + "_b");
}

TEST_F(ZooTest, GameVictimMatchesGameShape) {
  Zoo zoo(dir_, 0.01, 7);
  const auto v = zoo.victim("YouShallNotPass");
  const auto game = env::make_multiagent_env("YouShallNotPass");
  EXPECT_EQ(v.obs_dim(), game->victim_obs_dim());
  EXPECT_EQ(v.act_dim(), game->victim_act_dim());
}

TEST_F(ZooTest, AsPolicyIsFrozenDeterministicSnapshot) {
  Zoo zoo(dir_, 0.01, 7);
  auto v = zoo.victim("Hopper", "PPO");
  const auto fn = Zoo::as_policy(v);
  EXPECT_TRUE(fn.batched());
  Rng rng(3);
  const auto obs = rng.normal_vec(11, 0.0, 0.1);
  const auto a = fn.query(obs);
  // Mutating the original policy must not affect the snapshot.
  for (auto& w : v.net().params()) w = 0.0;
  EXPECT_EQ(fn.query(obs), a);
}

TEST_F(ZooTest, VictimStepBudgetsScale) {
  Zoo big(dir_ + "_big", 1.0, 7);
  Zoo small(dir_ + "_small", 0.1, 7);
  EXPECT_GT(big.victim_steps("Hopper"), small.victim_steps("Hopper"));
  EXPECT_GE(small.victim_steps("Hopper"), 4096);
  // The slow learners get the larger budget.
  EXPECT_GT(big.victim_steps("HalfCheetah"), big.victim_steps("Hopper"));
  std::filesystem::remove_all(dir_ + "_big");
  std::filesystem::remove_all(dir_ + "_small");
}

}  // namespace
}  // namespace imap::core
