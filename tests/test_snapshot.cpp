// Checkpoint/resume contract: snapshot at iteration k, restore into a fresh
// object built with identical constructor arguments, train the remaining
// iterations — every stat and every parameter must be bit-identical to a run
// that never stopped. Covers the PPO trainer (serial and vectorized), the
// IMAP attack stack (KNN union buffers + BR dual state), ATLA alternation,
// the victim-training session, the zoo and the experiment runner.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/serialize.h"
#include "core/experiment.h"
#include "core/imap_trainer.h"
#include "core/zoo.h"
#include "defense/atla.h"
#include "defense/victim_trainer.h"
#include "env/hopper.h"
#include "env/sparse.h"
#include "rl/ppo.h"
#include "temp_dir.h"

namespace imap {
namespace {

rl::PpoOptions tiny_ppo() {
  rl::PpoOptions o;
  o.hidden = {8, 8};
  o.steps_per_iter = 128;
  o.epochs = 2;
  o.minibatch = 64;
  return o;
}

void expect_same_stats(const rl::IterStats& a, const rl::IterStats& b) {
  EXPECT_EQ(a.iter, b.iter);
  EXPECT_EQ(a.total_steps, b.total_steps);
  EXPECT_EQ(a.mean_return, b.mean_return);
  EXPECT_EQ(a.mean_surrogate, b.mean_surrogate);
  EXPECT_EQ(a.success_rate, b.success_rate);
  EXPECT_EQ(a.episodes, b.episodes);
  EXPECT_EQ(a.policy_loss, b.policy_loss);
  EXPECT_EQ(a.value_loss, b.value_loss);
  EXPECT_EQ(a.approx_kl, b.approx_kl);
  EXPECT_EQ(a.entropy, b.entropy);
  EXPECT_EQ(a.mean_intrinsic, b.mean_intrinsic);
  EXPECT_EQ(a.tau, b.tau);
}

void expect_same_stats(const std::vector<rl::IterStats>& a,
                       const std::vector<rl::IterStats>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) expect_same_stats(a[i], b[i]);
}

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::unique_temp_dir("imap_test_snapshot");
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const { return dir_ + "/" + name; }

  /// The headline property, parameterised over the env and options: train T
  /// iterations straight vs snapshot@k → restore into a fresh trainer → train
  /// the remaining T−k.
  void expect_ppo_resume_identical(const rl::Env& env, rl::PpoOptions opts,
                                   int total_iters, int snap_at) {
    rl::PpoTrainer straight(env, opts, Rng(17));
    std::vector<rl::IterStats> want;
    for (int i = 0; i < total_iters; ++i) want.push_back(straight.iterate());

    rl::PpoTrainer first(env, opts, Rng(17));
    for (int i = 0; i < snap_at; ++i) first.iterate();
    const std::string snap = path("ppo.snap");
    ASSERT_TRUE(first.snapshot(snap));

    rl::PpoTrainer resumed(env, opts, Rng(17));
    ASSERT_TRUE(resumed.restore(snap));
    EXPECT_EQ(resumed.steps_done(), first.steps_done());
    std::vector<rl::IterStats> got(want.begin(), want.begin() + snap_at);
    for (int i = snap_at; i < total_iters; ++i) got.push_back(resumed.iterate());

    expect_same_stats(want, got);
    EXPECT_EQ(resumed.policy().flat_params(), straight.policy().flat_params());
  }

  std::string dir_;
};

TEST_F(SnapshotTest, PpoResumesDenseTaskBitIdentically) {
  // Mid-episode snapshot on purpose: hopper episodes outlive one iteration,
  // so restore must replay the in-flight episode, not just reload weights.
  expect_ppo_resume_identical(*env::make_hopper(), tiny_ppo(),
                              /*total_iters=*/4, /*snap_at=*/2);
}

TEST_F(SnapshotTest, PpoResumesSparseTaskBitIdentically) {
  expect_ppo_resume_identical(*env::make_sparse_hopper(), tiny_ppo(),
                              /*total_iters=*/3, /*snap_at=*/1);
}

TEST_F(SnapshotTest, PpoResumesVectorizedRolloutBitIdentically) {
  auto opts = tiny_ppo();
  opts.num_workers = 2;
  opts.envs_per_worker = 2;  // exercises per-slot episode state in "ppo/workers"
  expect_ppo_resume_identical(*env::make_hopper(), opts,
                              /*total_iters=*/3, /*snap_at=*/2);
}

TEST_F(SnapshotTest, PpoRestoreRejectsMismatchedTrainer) {
  const auto env = env::make_hopper();
  rl::PpoTrainer t(*env, tiny_ppo(), Rng(17));
  t.iterate();
  const std::string snap = path("ppo.snap");
  ASSERT_TRUE(t.snapshot(snap));

  // Missing file: quiet false (the caller starts fresh).
  rl::PpoTrainer fresh(*env, tiny_ppo(), Rng(17));
  EXPECT_FALSE(fresh.restore(path("missing.snap")));

  // Wrong architecture: loud CheckError, never a silent mis-read.
  auto other = tiny_ppo();
  other.hidden = {8};
  rl::PpoTrainer mismatched(*env, other, Rng(17));
  EXPECT_THROW(mismatched.restore(snap), CheckError);
}

TEST_F(SnapshotTest, PpoRestoreRejectsSnapshotWithoutSlotState) {
  const auto env = env::make_hopper();
  rl::PpoTrainer t(*env, tiny_ppo(), Rng(17));

  // Before any collection there are no slots yet: a fresh-trainer snapshot
  // restores (the fleet is rebuilt from the seed on the next collect).
  {
    ArchiveWriter a;
    t.save_state(a);
    rl::PpoTrainer fresh(*env, tiny_ppo(), Rng(17));
    EXPECT_NO_THROW(fresh.load_state(ArchiveReader::parse(a.bytes(), "t0")));
  }

  // After a collection, an image whose slot state is missing — as in a
  // snapshot from a build that kept the K·E = 1 episode elsewhere — must be
  // refused, not resumed with a silently restarted episode. Rename the
  // section to the same-length old name and re-seal the CRC trailer.
  t.iterate();
  ArchiveWriter a;
  t.save_state(a);
  std::vector<std::uint8_t> bytes = a.bytes();
  const std::string from = "ppo/workers", to = "ppo/episode";
  ASSERT_EQ(from.size(), to.size());
  const auto it = std::search(bytes.begin(), bytes.end(), from.begin(),
                              from.end());
  ASSERT_NE(it, bytes.end());
  std::copy(to.begin(), to.end(), it);
  const std::size_t body = bytes.size() - sizeof(std::uint32_t);
  const std::uint32_t crc = crc32(bytes.data(), body);
  std::memcpy(bytes.data() + body, &crc, sizeof(crc));
  const ArchiveReader stale = ArchiveReader::parse(bytes, "stale");
  ASSERT_FALSE(stale.has("ppo/workers"));

  rl::PpoTrainer resumed(*env, tiny_ppo(), Rng(17));
  try {
    resumed.load_state(stale);
    FAIL() << "restore without rollout-slot state must throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("delete the stale snapshot"),
              std::string::npos)
        << e.what();
  }
}

rl::ActionFn feedback_victim() {
  return [](const std::vector<double>& obs) {
    const auto p = env::hopper_params();
    std::vector<double> u(p.n_joints);
    for (std::size_t j = 0; j < p.n_joints; ++j)
      u[j] = 0.3 * p.c[j] - 3.0 * (obs[0] + 0.4 * obs[1]) * p.d[j];
    return u;
  };
}

TEST_F(SnapshotTest, ImapResumesWithKnnAndBiasReductionBitIdentically) {
  // IMAP-PC with BR: the snapshot must carry the PC union buffers (KNN
  // reservoirs + their Rng) and the BR dual state on top of the PPO state.
  const auto env = env::make_hopper();
  core::ImapOptions opts;
  opts.reg.type = core::RegularizerType::PC;
  opts.bias_reduction = true;
  opts.surrogate_scale = 500.0;
  opts.ppo = tiny_ppo();

  core::ImapTrainer straight(*env, feedback_victim(), 0.075, opts, Rng(23));
  std::vector<rl::IterStats> want;
  for (int i = 0; i < 4; ++i) want.push_back(straight.iterate());

  core::ImapTrainer first(*env, feedback_victim(), 0.075, opts, Rng(23));
  for (int i = 0; i < 2; ++i) first.iterate();
  const std::string snap = path("imap.snap");
  ASSERT_TRUE(first.snapshot(snap));

  core::ImapTrainer resumed(*env, feedback_victim(), 0.075, opts, Rng(23));
  ASSERT_TRUE(resumed.restore(snap));
  std::vector<rl::IterStats> got(want.begin(), want.begin() + 2);
  for (int i = 2; i < 4; ++i) got.push_back(resumed.iterate());

  expect_same_stats(want, got);
  EXPECT_EQ(resumed.trainer().policy().flat_params(),
            straight.trainer().policy().flat_params());
  EXPECT_EQ(resumed.tau(), straight.tau());
}

TEST_F(SnapshotTest, AtlaResumesAcrossRoundBoundaryBitIdentically) {
  // ATLA-SA: the snapshot carries the round counter, the frozen round
  // adversary, the SA hook's Rng stream and the full victim trainer.
  const auto env = env::make_hopper();
  const auto make = [&] {
    return defense::AtlaTrainer(*env, /*with_sa=*/true, /*steps=*/768,
                                /*eps=*/0.075, /*reg_coef=*/1.0, tiny_ppo(),
                                /*rounds=*/3, /*adversary_fraction=*/0.5,
                                Rng(31));
  };

  auto straight = make();
  std::vector<std::vector<rl::IterStats>> want;
  while (!straight.done()) want.push_back(straight.run_round());
  ASSERT_EQ(want.size(), 3u);

  auto first = make();
  first.run_round();
  first.run_round();  // past round 1, so an adversary is in the checkpoint
  const std::string snap = path("atla.snap");
  ASSERT_TRUE(first.snapshot(snap));

  auto resumed = make();
  ASSERT_TRUE(resumed.restore(snap));
  EXPECT_EQ(resumed.rounds_done(), 2);
  const auto got = resumed.run_round();
  EXPECT_TRUE(resumed.done());

  expect_same_stats(want[2], got);
  EXPECT_EQ(resumed.policy().flat_params(), straight.policy().flat_params());
}

TEST_F(SnapshotTest, VictimSessionResumesPerturbedPhaseBitIdentically) {
  // SA defense: snapshot taken in phase 1, after the session has switched to
  // the noise env + smoothness hook — the restore must reinstall both and
  // continue their shared Rng stream exactly.
  const auto env = env::make_hopper();
  defense::DefenseOptions opts;
  opts.eps = 0.075;
  opts.ppo = tiny_ppo();
  const auto make = [&] {
    return defense::VictimTrainSession(*env, defense::DefenseKind::SA,
                                       /*steps=*/512, opts, Rng(41));
  };

  auto straight = make();
  while (!straight.done()) straight.advance();

  auto first = make();
  first.advance();
  first.advance();
  first.advance();  // 384 of 512 steps: phase 1 is active
  ASSERT_FALSE(first.done());
  const std::string snap = path("victim.snap");
  ASSERT_TRUE(first.snapshot(snap));

  auto resumed = make();
  ASSERT_TRUE(resumed.restore(snap));
  while (!resumed.done()) resumed.advance();

  EXPECT_EQ(resumed.policy().flat_params(), straight.policy().flat_params());

  // Kind mismatch is rejected: an SA checkpoint cannot resume RADIAL.
  defense::VictimTrainSession wrong(*env, defense::DefenseKind::RADIAL, 512,
                                    opts, Rng(41));
  EXPECT_THROW(wrong.restore(snap), CheckError);
}

TEST_F(SnapshotTest, ZooSnapshotCadenceDoesNotChangeTheVictim) {
  // Snapshotting every advance unit vs never must produce bit-identical
  // victims, and a finished checkpoint supersedes (removes) its snapshot.
  core::Zoo plain(dir_ + "/plain", 0.01, 7, /*snapshot_every=*/0);
  core::Zoo snappy(dir_ + "/snappy", 0.01, 7, /*snapshot_every=*/1);
  const auto a = plain.victim("Hopper", "PPO");
  const auto b = snappy.victim("Hopper", "PPO");
  EXPECT_EQ(a.flat_params(), b.flat_params());
  for (const auto& e :
       std::filesystem::recursive_directory_iterator(dir_ + "/snappy"))
    EXPECT_NE(e.path().extension(), ".snap") << e.path();
}

TEST_F(SnapshotTest, RunnerHaltLeavesSnapshotAndResumesToSameResult) {
  core::AttackPlan plan;
  plan.env_name = "FetchReach";
  plan.attack = core::AttackKind::SaRl;
  plan.attack_steps = 4096;  // two iterations at the default 2048
  plan.eval_episodes = 5;

  BenchConfig cfg;
  cfg.zoo_dir = dir_ + "/zoo";
  cfg.scale = 0.01;
  cfg.seed = 7;

  // Uninterrupted reference in its own zoo (victims retrain
  // deterministically from the seed).
  BenchConfig ref_cfg = cfg;
  ref_cfg.zoo_dir = dir_ + "/zoo_ref";
  core::ExperimentRunner reference(ref_cfg);
  const auto want = reference.run(plan);
  ASSERT_TRUE(want.completed);

  // Halted run: one iteration, then a resumable snapshot and no cache entry.
  BenchConfig halt_cfg = cfg;
  halt_cfg.snapshot_every = 1;
  halt_cfg.halt_after_iters = 1;
  core::ExperimentRunner halted(halt_cfg);
  const auto partial = halted.run(plan);
  EXPECT_FALSE(partial.completed);
  EXPECT_EQ(partial.curve.size(), 1u);
  ASSERT_TRUE(std::filesystem::exists(cfg.zoo_dir + "/snapshots"));
  EXPECT_FALSE(std::filesystem::exists(cfg.zoo_dir + "/results"));

  // Resume in a fresh process (runner): picks the snapshot up, finishes, and
  // the outcome matches the uninterrupted reference bit for bit.
  core::ExperimentRunner resumed(cfg);
  const auto got = resumed.run(plan);
  ASSERT_TRUE(got.completed);
  ASSERT_EQ(got.curve.size(), want.curve.size());
  for (std::size_t i = 0; i < want.curve.size(); ++i) {
    EXPECT_EQ(got.curve[i].steps, want.curve[i].steps);
    EXPECT_EQ(got.curve[i].victim_success, want.curve[i].victim_success);
    EXPECT_EQ(got.curve[i].tau, want.curve[i].tau);
  }
  EXPECT_EQ(got.victim_eval.episode_returns, want.victim_eval.episode_returns);

  // The snapshot is gone; the finished result is cached instead.
  for (const auto& e : std::filesystem::recursive_directory_iterator(
           cfg.zoo_dir + "/snapshots"))
    EXPECT_NE(e.path().extension(), ".snap") << e.path();
  EXPECT_TRUE(std::filesystem::exists(cfg.zoo_dir + "/results"));
}

TEST_F(SnapshotTest, RunnerResumesRandomizedScenarioBitIdentically) {
  // Same halt/resume contract, but through the scenario layer: a procedurally
  // randomized cell (seeded DR + delay + perturbation channel) must come back
  // from a snapshot bit-identical to the uninterrupted run — i.e. the slot Rng
  // discipline that draws dynamics factors at reset survives the round trip.
  core::AttackPlan plan;
  plan.scenario = "hopper+obs_perturb:0.075+obs_delay:1+dr[mass:0.9..1.1]@11";
  plan.attack = core::AttackKind::ImapPC;
  plan.attack_steps = 4096;
  plan.eval_episodes = 5;

  BenchConfig cfg;
  cfg.zoo_dir = dir_ + "/zoo";
  cfg.scale = 0.01;
  cfg.seed = 7;

  BenchConfig ref_cfg = cfg;
  ref_cfg.zoo_dir = dir_ + "/zoo_ref";
  core::ExperimentRunner reference(ref_cfg);
  const auto want = reference.run(plan);
  ASSERT_TRUE(want.completed);

  BenchConfig halt_cfg = cfg;
  halt_cfg.snapshot_every = 1;
  halt_cfg.halt_after_iters = 1;
  core::ExperimentRunner halted(halt_cfg);
  const auto partial = halted.run(plan);
  EXPECT_FALSE(partial.completed);
  EXPECT_EQ(partial.curve.size(), 1u);

  core::ExperimentRunner resumed(cfg);
  const auto got = resumed.run(plan);
  ASSERT_TRUE(got.completed);
  ASSERT_EQ(got.curve.size(), want.curve.size());
  for (std::size_t i = 0; i < want.curve.size(); ++i) {
    EXPECT_EQ(got.curve[i].steps, want.curve[i].steps);
    EXPECT_EQ(got.curve[i].victim_success, want.curve[i].victim_success);
    EXPECT_EQ(got.curve[i].tau, want.curve[i].tau);
  }
  EXPECT_EQ(got.victim_eval.episode_returns, want.victim_eval.episode_returns);
}

}  // namespace
}  // namespace imap
