// The grid executor's store contract: crash-safe file locks, DAG-scheduled
// grids (including the halt -> stale lock -> resume drill) and atomic
// concurrent store writes. The cross-process cases fork a plain child that
// reports through its exit status.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/proc.h"
#include "common/serialize.h"
#include "common/thread_pool.h"
#include "core/experiment_dag.h"
#include "temp_dir.h"

namespace imap {
namespace {

/// Fork a child that runs `body` and exits with its return value (1 when it
/// throws). The child leaves via _exit, so it never runs the test binary's
/// atexit handlers or flushes its stdio buffers.
pid_t fork_child(const std::function<int()>& body) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    int rc = 1;
    try {
      ScopedSerial serial;  // the parent's pool threads did not survive fork
      rc = body();
    } catch (...) {
    }
    ::_exit(rc);
  }
  return pid;
}

/// Reap `pid`; its exit code, or -1 when it did not exit normally.
int wait_exit(pid_t pid) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

// ---------------------------------------------------------------------------
// FileLock
// ---------------------------------------------------------------------------

TEST(FileLock, StaleOwnerIsStolen) {
  const auto dir = testing::unique_temp_dir("fabric_lock_stale");
  std::filesystem::create_directories(dir);
  const auto path = dir + "/cell.lock";
  {
    // A lockfile owned by a pid that cannot exist (beyond any pid_max):
    // the crashed-worker shape, since _exit skips FileLock destructors.
    std::ofstream f(path);
    f << 999999999;
  }
  { proc::FileLock lock(path); }  // must steal promptly, not deadlock
  EXPECT_FALSE(std::filesystem::exists(path));
  std::filesystem::remove_all(dir);
}

TEST(FileLock, BlocksUntilHolderReleases) {
  const auto dir = testing::unique_temp_dir("fabric_lock_block");
  std::filesystem::create_directories(dir);
  const auto path = dir + "/cell.lock";
  const auto marker = dir + "/marker";
  auto held = std::make_unique<proc::FileLock>(path);
  const pid_t child = fork_child([&] {
    proc::FileLock lock(path);  // blocks until the parent releases
    return std::filesystem::exists(marker) ? 0 : 2;
  });
  ASSERT_GT(child, 0);
  // The marker exists strictly before the release, so a correctly-blocking
  // child can only ever observe it present.
  { std::ofstream f(marker); f << 1; }
  held.reset();
  EXPECT_EQ(wait_exit(child), 0);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// DAG scheduler
// ---------------------------------------------------------------------------

std::vector<core::AttackPlan> small_grid() {
  std::vector<core::AttackPlan> plans;
  for (const auto& [env, kind] :
       std::vector<std::pair<std::string, core::AttackKind>>{
           {"Hopper", core::AttackKind::None},
           {"Hopper", core::AttackKind::ImapPC},
           {"SparseHopper", core::AttackKind::ImapSC}}) {
    core::AttackPlan p;
    p.env_name = env;
    p.attack = kind;
    p.attack_steps = 4096;
    p.eval_episodes = 4;
    plans.push_back(p);
  }
  return plans;
}

BenchConfig small_cfg(const std::string& zoo) {
  BenchConfig cfg;
  cfg.scale = 0.001;  // victim budget floors at 4096 steps
  cfg.zoo_dir = zoo;
  cfg.seed = 7;
  cfg.snapshot_every = 1;
  return cfg;
}

/// The serial reference: the thread executor under ScopedSerial, so every
/// node runs inline on this thread in DAG order.
std::vector<core::AttackOutcome> serial_run(
    const BenchConfig& cfg, const std::vector<core::AttackPlan>& plans) {
  ScopedSerial inline_only;
  return core::DagScheduler(cfg).run(plans);
}

void expect_outcomes_equal(const std::vector<core::AttackOutcome>& a,
                           const std::vector<core::AttackOutcome>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].completed, b[i].completed) << "plan " << i;
    EXPECT_EQ(a[i].victim_eval.returns.mean, b[i].victim_eval.returns.mean)
        << "plan " << i;
    EXPECT_EQ(a[i].victim_eval.returns.stddev,
              b[i].victim_eval.returns.stddev)
        << "plan " << i;
    EXPECT_EQ(a[i].victim_eval.returns.episodes,
              b[i].victim_eval.returns.episodes)
        << "plan " << i;
    EXPECT_EQ(a[i].victim_eval.success_rate, b[i].victim_eval.success_rate)
        << "plan " << i;
    EXPECT_EQ(a[i].victim_eval.mean_length, b[i].victim_eval.mean_length)
        << "plan " << i;
    EXPECT_EQ(a[i].victim_eval.episode_returns,
              b[i].victim_eval.episode_returns)
        << "plan " << i;
    ASSERT_EQ(a[i].curve.size(), b[i].curve.size()) << "plan " << i;
    for (std::size_t j = 0; j < a[i].curve.size(); ++j) {
      EXPECT_EQ(a[i].curve[j].steps, b[i].curve[j].steps);
      EXPECT_EQ(a[i].curve[j].victim_success, b[i].curve[j].victim_success);
      EXPECT_EQ(a[i].curve[j].tau, b[i].curve[j].tau);
    }
  }
}

TEST(DagScheduler, BuildsDedupedVictimDag) {
  auto cfg = small_cfg(testing::unique_temp_dir("fabric_dag_build"));
  core::ExperimentRunner runner(cfg);
  std::vector<std::size_t> node_of_plan;
  const auto nodes =
      core::build_experiment_dag(runner, small_grid(), node_of_plan);
  // One shared victim (SparseHopper trains on dense Hopper) + 3 attacks.
  ASSERT_EQ(nodes.size(), 4u);
  EXPECT_EQ(nodes[0].kind, core::DagNode::Kind::Victim);
  int attacks = 0;
  for (const auto& n : nodes)
    if (n.kind == core::DagNode::Kind::Attack) {
      ++attacks;
      ASSERT_EQ(n.deps.size(), 1u);
      EXPECT_EQ(n.deps[0], 0u);
    }
  EXPECT_EQ(attacks, 3);
  EXPECT_EQ(node_of_plan.size(), 3u);
  std::filesystem::remove_all(cfg.zoo_dir);
}

TEST(DagScheduler, VictimNodesAreKeyedByTheZooCheckpoint) {
  // One victim node kind for games and single-agent tasks, one node per
  // Zoo::checkpoint_path: a game's victim ignores the plan's defense, so
  // both game cells share it.
  auto cfg = small_cfg(testing::unique_temp_dir("fabric_dag_keys"));
  core::ExperimentRunner runner(cfg);
  std::vector<core::AttackPlan> plans;
  for (const auto& [env_name, defense, attack] :
       std::vector<std::tuple<std::string, std::string, core::AttackKind>>{
           {"YouShallNotPass", "PPO", core::AttackKind::ApMarl},
           {"YouShallNotPass", "ATLA", core::AttackKind::ImapR},
           {"Hopper", "SA", core::AttackKind::ImapR}}) {
    core::AttackPlan p;
    p.env_name = env_name;
    p.defense = defense;
    p.attack = attack;
    plans.push_back(p);
  }
  std::vector<std::size_t> node_of_plan;
  const auto nodes = core::build_experiment_dag(runner, plans, node_of_plan);
  std::vector<std::string> victim_paths;
  for (const auto& n : nodes)
    if (n.kind == core::DagNode::Kind::Victim)
      victim_paths.push_back(
          runner.zoo().checkpoint_path(n.env_name, n.defense));
  EXPECT_EQ(victim_paths,
            (std::vector<std::string>{
                runner.zoo().checkpoint_path("YouShallNotPass", "PPO"),
                runner.zoo().checkpoint_path("Hopper", "SA")}));
  ASSERT_EQ(node_of_plan.size(), 3u);
  EXPECT_EQ(nodes[node_of_plan[0]].deps, nodes[node_of_plan[1]].deps);
  std::filesystem::remove_all(cfg.zoo_dir);
}

TEST(DagScheduler, HaltedGridResumesFromSnapshotsAndStaleLocks) {
  // The crashed-run shape, in process: every attack cell halts after one
  // training iteration (leaving its snapshot, caching no result), and each
  // halted cell's lockfile names a dead owner, as a killed run leaves it.
  // A rerun over the same store, still halting after one iteration, must
  // steal the locks, resume every cell from its snapshot (so that one more
  // iteration completes it) and match an undisturbed serial run bit for bit.
  const auto base = testing::unique_temp_dir("fabric_dag_resume");
  const auto plans = small_grid();
  const auto ref = serial_run(small_cfg(base + "_serial"), plans);

  const BenchConfig cfg = small_cfg(base + "_store");
  BenchConfig halting = cfg;
  halting.halt_after_iters = 1;
  const auto halted = core::DagScheduler(halting).run(plans);

  core::ExperimentRunner runner(cfg);
  std::vector<std::string> halted_keys;
  for (std::size_t i = 0; i < plans.size(); ++i) {
    if (halted[i].completed) continue;
    const auto key = runner.cache_key(runner.normalize_plan(plans[i]),
                                      plans[i].attack_steps,
                                      plans[i].eval_episodes);
    ASSERT_TRUE(std::filesystem::exists(cfg.zoo_dir + "/snapshots/" + key +
                                        ".snap"))
        << "plan " << i;
    // A pid beyond any pid_max: the owner is gone.
    std::ofstream(cfg.zoo_dir + "/locks/" + key + ".lock") << 999999999;
    halted_keys.push_back(key);
  }
  ASSERT_GE(halted_keys.size(), 2u);

  std::vector<core::AttackOutcome> out;
  {
    ThreadPool pool(4);
    ScopedPool scope(pool);
    out = core::DagScheduler(halting).run(plans);
  }
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_TRUE(core::identical_results(ref[i], out[i])) << "plan " << i;
  for (const auto& key : halted_keys) {
    EXPECT_FALSE(std::filesystem::exists(cfg.zoo_dir + "/locks/" + key +
                                         ".lock"));
    EXPECT_FALSE(std::filesystem::exists(cfg.zoo_dir + "/snapshots/" + key +
                                         ".snap"));
  }
  std::filesystem::remove_all(base + "_serial");
  std::filesystem::remove_all(base + "_store");
}

TEST(DagScheduler, ThreadExecutorMatchesSerialRun) {
  // Two single-agent victims (one shared with a sparse task) and one game
  // victim: on a 4-thread pool the victims train concurrently and each
  // one's attacks overlap the others' training. Every outcome must match
  // the serial run bit for bit.
  std::vector<core::AttackPlan> plans = small_grid();
  for (const auto& [env, defense, kind] :
       std::vector<std::tuple<std::string, std::string, core::AttackKind>>{
           {"Hopper", "SA", core::AttackKind::ImapR},
           {"YouShallNotPass", "PPO", core::AttackKind::ApMarl},
           {"YouShallNotPass", "PPO", core::AttackKind::ImapR}}) {
    core::AttackPlan p;
    p.env_name = env;
    p.defense = defense;
    p.attack = kind;
    p.attack_steps = 4096;
    p.eval_episodes = 4;
    plans.push_back(p);
  }
  const auto base = testing::unique_temp_dir("fabric_dag_threads");
  const auto ref = serial_run(small_cfg(base + "_serial"), plans);

  ThreadPool pool(4);
  ScopedPool scope(pool);
  core::DagScheduler threaded(small_cfg(base + "_threads"));
  const auto out = threaded.run(plans);
  int victims = 0;
  for (const auto& n : threaded.nodes())
    victims += n.kind != core::DagNode::Kind::Attack;
  EXPECT_EQ(victims, 3);
  EXPECT_EQ(threaded.node_seconds().size(), threaded.nodes().size());

  expect_outcomes_equal(ref, out);
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_TRUE(core::identical_results(ref[i], out[i])) << "plan " << i;
  std::filesystem::remove_all(base + "_serial");
  std::filesystem::remove_all(base + "_threads");
}

TEST(DagScheduler, RandomizedScenarioGridMatchesSerialRun) {
  // A grid mixing a baseline cell with a randomized scenario cell: the
  // scenario cell shares the baseline's victim node (one Hopper train), and
  // the whole grid on a 4-thread pool matches the serial run bit for bit.
  std::vector<core::AttackPlan> plans;
  core::AttackPlan base;
  base.env_name = "Hopper";
  base.attack = core::AttackKind::None;
  base.eval_episodes = 4;
  plans.push_back(base);
  core::AttackPlan scn;
  scn.scenario = "hopper+obs_perturb:0.075+obs_delay:1+dr[mass:0.9..1.1]@13";
  scn.attack = core::AttackKind::ImapPC;
  scn.attack_steps = 4096;
  scn.eval_episodes = 4;
  plans.push_back(scn);

  const auto base_dir = testing::unique_temp_dir("fabric_dag_scenario");
  {
    core::ExperimentRunner runner(small_cfg(base_dir + "_probe"));
    std::vector<std::size_t> node_of_plan;
    const auto nodes = core::build_experiment_dag(runner, plans, node_of_plan);
    ASSERT_EQ(nodes.size(), 3u);  // one shared victim + two attack cells
    EXPECT_EQ(nodes[0].kind, core::DagNode::Kind::Victim);
  }

  const auto ref = serial_run(small_cfg(base_dir + "_serial"), plans);

  std::vector<core::AttackOutcome> out;
  {
    ThreadPool pool(4);
    ScopedPool scope(pool);
    out = core::DagScheduler(small_cfg(base_dir + "_threads")).run(plans);
  }

  expect_outcomes_equal(ref, out);
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_TRUE(core::identical_results(ref[i], out[i])) << "plan " << i;
  std::filesystem::remove_all(base_dir + "_probe");
  std::filesystem::remove_all(base_dir + "_serial");
  std::filesystem::remove_all(base_dir + "_threads");
}

// ---------------------------------------------------------------------------
// Atomic artifact writes
// ---------------------------------------------------------------------------

TEST(AtomicStore, ConcurrentWritersNeverTearAReader) {
  const auto dir = testing::unique_temp_dir("fabric_atomic");
  std::filesystem::create_directories(dir);
  const auto path = dir + "/store.res";
  const auto writer = [&path](double value) {
    return fork_child([&path, value] {
      for (int i = 0; i < 40; ++i) {
        BinaryWriter w;
        w.write_vec(std::vector<double>(2000, value + i));
        if (!w.save(path)) return 2;
      }
      return 0;
    });
  };
  const pid_t w1 = writer(1000.0);
  const pid_t w2 = writer(2000.0);
  ASSERT_GT(w1, 0);
  ASSERT_GT(w2, 0);
  // Read concurrently with both writers: every observed file must be a
  // complete CRC-valid image from exactly one writer (pid-unique tmp +
  // atomic rename — never a torn interleaving).
  for (int i = 0; i < 2000 && !std::filesystem::exists(path); ++i)
    ::usleep(1000);  // bounded wait for the first rename to land
  ASSERT_TRUE(std::filesystem::exists(path));
  int observed = 0;
  for (int i = 0; i < 400; ++i) {
    BinaryReader r;
    ASSERT_TRUE(BinaryReader::load(path, r)) << "torn read " << i;
    const auto v = r.read_vec();
    ASSERT_EQ(v.size(), 2000u);
    EXPECT_TRUE(v[0] >= 1000.0 && v[0] < 1040.0 ? true
                                                : v[0] >= 2000.0 &&
                                                      v[0] < 2040.0)
        << "mixed payload " << v[0];
    ++observed;
  }
  EXPECT_EQ(wait_exit(w1), 0);
  EXPECT_EQ(wait_exit(w2), 0);
  EXPECT_GT(observed, 0);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace imap
