// The multi-process fabric contract: framed-Archive channels, crash-safe
// file locks, DAG-scheduled grids (including the kill-one-worker →
// re-dispatch → resume drill) and atomic concurrent store writes.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/check.h"
#include "common/proc.h"
#include "common/serialize.h"
#include "common/thread_pool.h"
#include "core/experiment_dag.h"
#include "temp_dir.h"

namespace imap {
namespace {

// ---------------------------------------------------------------------------
// Channel framing
// ---------------------------------------------------------------------------

TEST(Channel, RoundTripThroughWorker) {
  auto w = proc::WorkerProcess::spawn([](proc::Channel& ch) {
    ArchiveReader req;
    while (ch.recv(req)) {
      ArchiveWriter rep;
      auto r = req.section("ping/v");
      rep.section("echo/v").write_vec(r.read_vec());
      if (!ch.send(rep)) break;
    }
  });
  const std::vector<double> payload{1.5, -2.25, 1e300, 0.0};
  ArchiveWriter msg;
  msg.section("ping/v").write_vec(payload);
  ASSERT_TRUE(w.channel().send(msg));
  ArchiveReader rep;
  ASSERT_TRUE(w.channel().recv(rep));
  auto r = rep.section("echo/v");
  EXPECT_EQ(r.read_vec(), payload);
  EXPECT_EQ(w.join(), 0);
}

TEST(Channel, CleanEofWhenChildExits) {
  auto w = proc::WorkerProcess::spawn([](proc::Channel&) {});
  ArchiveReader rep;
  EXPECT_FALSE(w.channel().recv(rep));  // EOF, not an exception
  EXPECT_EQ(w.join(), 0);
}

TEST(Channel, TruncatedFrameThrows) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  proc::Channel ch(fds[0], -1);
  // Header promises a 32-byte frame; only 8 bytes arrive before EOF.
  const std::uint8_t hdr[8] = {32, 0, 0, 0, 0, 0, 0, 0};
  const std::uint8_t junk[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  ASSERT_EQ(::write(fds[1], hdr, 8), 8);
  ASSERT_EQ(::write(fds[1], junk, 8), 8);
  ::close(fds[1]);
  ArchiveReader out;
  EXPECT_THROW(ch.recv(out), CheckError);
}

TEST(Channel, CorruptPayloadThrows) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  proc::Channel ch(fds[0], -1);
  // A complete 16-byte frame whose payload is not a valid archive.
  const std::uint8_t hdr[8] = {16, 0, 0, 0, 0, 0, 0, 0};
  std::uint8_t junk[16];
  for (int i = 0; i < 16; ++i) junk[i] = static_cast<std::uint8_t>(0xA0 + i);
  ASSERT_EQ(::write(fds[1], hdr, 8), 8);
  ASSERT_EQ(::write(fds[1], junk, 16), 16);
  ::close(fds[1]);
  ArchiveReader out;
  EXPECT_THROW(ch.recv(out), CheckError);
}

TEST(WorkerProcess, TerminateReapsKilledChild) {
  auto w = proc::WorkerProcess::spawn([](proc::Channel& ch) {
    ArchiveReader req;
    while (ch.recv(req)) {
    }
  });
  ASSERT_TRUE(w.running());
  w.terminate();
  EXPECT_FALSE(w.running());
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
  auto w = proc::WorkerProcess::spawn([path, marker](proc::Channel& ch) {
    proc::FileLock lock(path);  // blocks until the parent releases
    ArchiveWriter rep;
    rep.section("saw").write_bool(std::filesystem::exists(marker));
    ch.send(rep);
  });
  // The marker exists strictly before the release, so a correctly-blocking
  // child can only ever observe it present.
  { std::ofstream f(marker); f << 1; }
  held.reset();
  ArchiveReader rep;
  ASSERT_TRUE(w.channel().recv(rep));
  EXPECT_TRUE(rep.section("saw").read_bool());
  EXPECT_EQ(w.join(), 0);
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
  core::DagOptions opts;
  opts.procs = 1;
  return core::DagScheduler(cfg, opts).run(plans);
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

TEST(DagScheduler, TwoProcessGridMatchesSerialRun) {
  const auto base = testing::unique_temp_dir("fabric_dag_eq");
  const auto ref = serial_run(small_cfg(base + "_serial"), small_grid());

  core::DagOptions fabric_opts;
  fabric_opts.procs = 2;
  core::DagScheduler fabric(small_cfg(base + "_fabric"), fabric_opts);
  const auto out = fabric.run(small_grid());
  EXPECT_EQ(fabric.stats().procs, 2);
  EXPECT_GE(fabric.stats().dispatched, 4);
  EXPECT_EQ(fabric.stats().worker_deaths, 0);

  expect_outcomes_equal(ref, out);
  std::filesystem::remove_all(base + "_serial");
  std::filesystem::remove_all(base + "_fabric");
}

TEST(DagScheduler, KilledWorkerIsRedispatchedAndResumesFromSnapshot) {
  const auto base = testing::unique_temp_dir("fabric_dag_crash");
  const auto ref = serial_run(small_cfg(base + "_serial"), small_grid());

  core::DagOptions crash_opts;
  crash_opts.procs = 2;
  crash_opts.crash_nth_attack = 1;  // kill the first attack cell mid-run
  core::DagScheduler fabric(small_cfg(base + "_fabric"), crash_opts);
  const auto out = fabric.run(small_grid());
  EXPECT_GE(fabric.stats().worker_deaths, 1);
  EXPECT_GE(fabric.stats().re_dispatched, 1);

  // The re-dispatched cell resumed from the crashed attempt's snapshot —
  // and still matches the serial reference bit for bit.
  expect_outcomes_equal(ref, out);
  std::filesystem::remove_all(base + "_serial");
  std::filesystem::remove_all(base + "_fabric");
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
  core::DagOptions opts;
  opts.procs = 1;
  core::DagScheduler threaded(small_cfg(base + "_threads"), opts);
  const auto out = threaded.run(plans);
  int victims = 0;
  for (const auto& n : threaded.nodes())
    victims += n.kind != core::DagNode::Kind::Attack;
  EXPECT_EQ(victims, 3);
  EXPECT_EQ(threaded.stats().procs, 1);
  EXPECT_EQ(threaded.stats().dispatched, threaded.stats().nodes);

  expect_outcomes_equal(ref, out);
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_TRUE(core::identical_results(ref[i], out[i])) << "plan " << i;
  std::filesystem::remove_all(base + "_serial");
  std::filesystem::remove_all(base + "_threads");
}

TEST(DagScheduler, RandomizedScenarioGridMatchesSerialRun) {
  // A grid mixing a baseline cell with a randomized scenario cell: the
  // scenario cell shares the baseline's victim node (one Hopper train), and
  // the whole grid is 1-vs-N procs invariant bit for bit.
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

  core::DagOptions fabric_opts;
  fabric_opts.procs = 2;
  core::DagScheduler fabric(small_cfg(base_dir + "_fabric"), fabric_opts);
  const auto out = fabric.run(plans);
  EXPECT_EQ(fabric.stats().worker_deaths, 0);

  expect_outcomes_equal(ref, out);
  std::filesystem::remove_all(base_dir + "_probe");
  std::filesystem::remove_all(base_dir + "_serial");
  std::filesystem::remove_all(base_dir + "_fabric");
}

// ---------------------------------------------------------------------------
// Atomic artifact writes
// ---------------------------------------------------------------------------

TEST(AtomicStore, ConcurrentWritersNeverTearAReader) {
  const auto dir = testing::unique_temp_dir("fabric_atomic");
  std::filesystem::create_directories(dir);
  const auto path = dir + "/store.res";
  const auto writer_body = [path](double value) {
    return [path, value](proc::Channel& ch) {
      for (int i = 0; i < 40; ++i) {
        BinaryWriter w;
        w.write_vec(std::vector<double>(2000, value + i));
        IMAP_CHECK(w.save(path));
      }
      ArchiveWriter rep;
      rep.section("done").write_bool(true);
      ch.send(rep);
    };
  };
  auto w1 = proc::WorkerProcess::spawn(writer_body(1000.0));
  auto w2 = proc::WorkerProcess::spawn(writer_body(2000.0));
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
  ArchiveReader rep;
  ASSERT_TRUE(w1.channel().recv(rep));
  ASSERT_TRUE(w2.channel().recv(rep));
  EXPECT_EQ(w1.join(), 0);
  EXPECT_EQ(w2.join(), 0);
  EXPECT_GT(observed, 0);
  std::filesystem::remove_all(dir);
}

TEST(ConfiguredProcs, ReadsAndValidatesEnv) {
  ::setenv("IMAP_PROCS", "3", 1);
  EXPECT_EQ(proc::configured_procs(), 3);
  ::setenv("IMAP_PROCS", "bogus", 1);
  EXPECT_EQ(proc::configured_procs(), 1);
  ::setenv("IMAP_PROCS", "0", 1);
  EXPECT_EQ(proc::configured_procs(), 1);
  ::unsetenv("IMAP_PROCS");
  EXPECT_EQ(proc::configured_procs(), 1);
}

}  // namespace
}  // namespace imap
