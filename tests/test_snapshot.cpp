// Checkpoint/resume contract: snapshot at iteration k, restore into a fresh
// object built with identical constructor arguments, train the remaining
// iterations — every stat and every parameter must be bit-identical to a run
// that never stopped. Covers the PPO trainer (serial and vectorized), the
// IMAP attack stack (KNN union buffers + BR dual state), ATLA alternation,
// the victim-training session of every kind, the resumable driver
// (core::run_resumable), the zoo and the experiment runner.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/serialize.h"
#include "common/thread_pool.h"
#include "core/experiment.h"
#include "core/imap_trainer.h"
#include "core/resumable.h"
#include "core/zoo.h"
#include "defense/atla.h"
#include "defense/victim_trainer.h"
#include "env/hopper.h"
#include "env/multiagent.h"
#include "env/registry.h"
#include "env/sparse.h"
#include "rl/ppo.h"
#include "temp_dir.h"

namespace imap {

namespace defense {
// Readable parameter values in test listings.
void PrintTo(DefenseKind kind, std::ostream* os) { *os << to_string(kind); }
}  // namespace defense

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

/// Write `t`'s full state to a snapshot file.
template <typename T>
void save_snapshot(const T& t, const std::string& path) {
  ArchiveWriter a;
  t.save_state(a);
  ASSERT_TRUE(a.save(path));
}

/// Load a snapshot file into `t`.
template <typename T>
void load_snapshot(T& t, const std::string& path) {
  ArchiveReader a;
  ASSERT_TRUE(ArchiveReader::load(path, a));
  t.load_state(a);
}

/// Forwards a session to run_resumable and counts the units it advances.
template <typename Session>
struct CountingSession {
  Session& inner;
  int units = 0;

  bool done() const { return inner.done(); }
  void advance() {
    inner.advance();
    ++units;
  }
  void save_state(ArchiveWriter& a) const { inner.save_state(a); }
  void load_state(const ArchiveReader& a) { inner.load_state(a); }
};

/// A PPO trainer as a run_resumable session: one unit is one iteration.
struct PpoSession {
  rl::PpoTrainer& trainer;
  long long steps;

  bool done() const { return trainer.steps_done() >= steps; }
  void advance() { trainer.iterate(); }
  void save_state(ArchiveWriter& a) const { trainer.save_state(a); }
  void load_state(const ArchiveReader& a) { trainer.load_state(a); }
};

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
    save_snapshot(first, snap);

    rl::PpoTrainer resumed(env, opts, Rng(17));
    load_snapshot(resumed, snap);
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

TEST_F(SnapshotTest, PpoHaltedWithPendingIntrinsicChainResumesIdentically) {
  // update() returns with the intrinsic critic's chain still pending; the
  // snapshot joins it, so a trainer halted right after iterate() resumes to
  // the same archive bytes as one that never stopped.
  ThreadPool pool(2);
  ScopedPool scope(pool);
  const auto env = env::make_hopper();
  const auto make = [&] {
    auto t = std::make_unique<rl::PpoTrainer>(*env, tiny_ppo(), Rng(29));
    t->set_intrinsic_hook([](rl::RolloutBuffer& buf) {
      for (std::size_t i = 0; i < buf.size(); ++i)
        buf.rew_i[i] = buf.obs[i][0] * buf.obs[i][0];
      return 0.4;
    });
    return t;
  };
  const auto digest = [](const rl::PpoTrainer& t) {
    ArchiveWriter a;
    t.save_state(a);
    return a.bytes();
  };

  auto straight = make();
  std::vector<rl::IterStats> want;
  for (int i = 0; i < 4; ++i) want.push_back(straight->iterate());

  const std::string snap = path("pending.snap");
  {
    auto halted = make();
    for (int i = 0; i < 2; ++i) halted->iterate();
    save_snapshot(*halted, snap);
  }  // destroyed as a halted process would leave it

  auto resumed = make();
  load_snapshot(*resumed, snap);
  std::vector<rl::IterStats> got(want.begin(), want.begin() + 2);
  for (int i = 2; i < 4; ++i) got.push_back(resumed->iterate());
  expect_same_stats(want, got);
  EXPECT_EQ(digest(*resumed), digest(*straight));
}

TEST_F(SnapshotTest, PpoRestoreRejectsMismatchedTrainer) {
  const auto env = env::make_hopper();
  rl::PpoTrainer t(*env, tiny_ppo(), Rng(17));
  PpoSession halted{t, 3 * 128};
  const std::string snap = path("ppo.snap");
  ASSERT_FALSE(core::run_resumable(halted, {snap, 0, /*halt_after=*/1}));
  ASSERT_TRUE(std::filesystem::exists(snap));

  // Missing file: no resume, the run starts fresh and matches a trainer
  // that never saw a snapshot.
  rl::PpoTrainer fresh(*env, tiny_ppo(), Rng(17));
  PpoSession from_missing{fresh, 128};
  EXPECT_TRUE(core::run_resumable(from_missing, {path("missing.snap")}));
  rl::PpoTrainer straight(*env, tiny_ppo(), Rng(17));
  straight.iterate();
  EXPECT_EQ(fresh.steps_done(), straight.steps_done());
  EXPECT_EQ(fresh.policy().flat_params(), straight.policy().flat_params());

  // Wrong architecture: loud CheckError, never a silent mis-read.
  auto other = tiny_ppo();
  other.hidden = {8};
  rl::PpoTrainer mismatched(*env, other, Rng(17));
  PpoSession wrong{mismatched, 3 * 128};
  EXPECT_THROW(core::run_resumable(wrong, {snap}), CheckError);
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
  save_snapshot(first, snap);

  core::ImapTrainer resumed(*env, feedback_victim(), 0.075, opts, Rng(23));
  load_snapshot(resumed, snap);
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
  save_snapshot(first, snap);

  auto resumed = make();
  load_snapshot(resumed, snap);
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
  save_snapshot(first, snap);

  auto resumed = make();
  load_snapshot(resumed, snap);
  while (!resumed.done()) resumed.advance();

  EXPECT_EQ(resumed.policy().flat_params(), straight.policy().flat_params());

  // Kind mismatch is rejected: an SA checkpoint cannot resume RADIAL.
  defense::VictimTrainSession wrong(*env, defense::DefenseKind::RADIAL, 512,
                                    opts, Rng(41));
  EXPECT_THROW(core::run_resumable(wrong, {snap}), CheckError);
}

TEST_F(SnapshotTest, ZooSnapshotCadenceDoesNotChangeTheVictim) {
  // Snapshotting every advance unit vs never must produce bit-identical
  // victims, and a finished checkpoint supersedes (removes) its snapshot.
  // RADIAL crosses its phase switch, ATLA advances by rounds, and the game
  // victim trains on the game's victim side.
  core::Zoo plain(dir_ + "/plain", 0.01, 7, /*snapshot_every=*/0);
  core::Zoo snappy(dir_ + "/snappy", 0.01, 7, /*snapshot_every=*/1);
  const std::vector<std::pair<std::string, std::string>> victims = {
      {"Hopper", "PPO"},
      {"Hopper", "RADIAL"},
      {"Hopper", "ATLA"},
      {"YouShallNotPass", "PPO"}};
  for (const auto& [env_name, defense] : victims) {
    SCOPED_TRACE(env_name + "/" + defense);
    const auto a = plain.victim(env_name, defense);
    const auto b = snappy.victim(env_name, defense);
    EXPECT_EQ(a.flat_params(), b.flat_params());
  }
  for (const auto& e :
       std::filesystem::recursive_directory_iterator(dir_ + "/snappy"))
    EXPECT_NE(e.path().extension(), ".snap") << e.path();
}

/// The resumable driver over every victim kind: a run halted after unit 2
/// and resumed in a fresh session advances only the remaining units and
/// ends bit-identical to a straight run.
class VictimKindResumeTest
    : public SnapshotTest,
      public ::testing::WithParamInterface<defense::DefenseKind> {
 protected:
  defense::VictimTrainSession make_session() const {
    defense::DefenseOptions opts;
    opts.eps = 0.075;
    opts.ppo = tiny_ppo();
    const defense::DefenseKind kind = GetParam();
    // 768 steps: six PPO units (the regularizer kinds switch phase at the
    // fourth), or three ATLA rounds.
    if (kind != defense::DefenseKind::Game)
      return defense::VictimTrainSession(*hopper_, kind, 768, opts, Rng(43));
    const auto game = env::make_multiagent_env("YouShallNotPass");
    const env::VictimSideEnv side(
        *game, env::victim_training_pool("YouShallNotPass"));
    return defense::VictimTrainSession(side, kind, 768, opts, Rng(43));
  }

  std::unique_ptr<rl::Env> hopper_ = env::make_hopper();
};

TEST_P(VictimKindResumeTest, HaltedAtUnitTwoThenResumedMatchesStraightRun) {
  auto straight = make_session();
  CountingSession all{straight};
  ASSERT_TRUE(core::run_resumable(all, {}));
  ASSERT_GT(all.units, 2);

  const std::string snap = path("victim.snap");
  auto halted = make_session();
  CountingSession first{halted};
  EXPECT_FALSE(core::run_resumable(first, {snap, 0, /*halt_after=*/2}));
  EXPECT_EQ(first.units, 2);
  ASSERT_TRUE(std::filesystem::exists(snap));

  auto resumed = make_session();
  CountingSession rest{resumed};
  EXPECT_TRUE(core::run_resumable(rest, {snap}));
  EXPECT_EQ(rest.units, all.units - 2);
  EXPECT_FALSE(std::filesystem::exists(snap));
  EXPECT_EQ(resumed.policy().flat_params(), straight.policy().flat_params());
}

INSTANTIATE_TEST_SUITE_P(
    RunResumable, VictimKindResumeTest,
    ::testing::Values(defense::DefenseKind::Vanilla, defense::DefenseKind::ATLA,
                      defense::DefenseKind::SA, defense::DefenseKind::ATLA_SA,
                      defense::DefenseKind::RADIAL, defense::DefenseKind::WocaR,
                      defense::DefenseKind::Game),
    [](const ::testing::TestParamInfo<defense::DefenseKind>& kind) {
      std::string name = defense::to_string(kind.param);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

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

  // Resume in a fresh process (runner), still halting after one iteration:
  // the run completes only if it picked the snapshot up (one iteration
  // left), and the outcome matches the uninterrupted reference bit for bit.
  core::ExperimentRunner resumed(halt_cfg);
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
