// fabric_grid: drive a small victim→attack experiment grid through the
// multi-process DAG scheduler and (optionally) prove it bit-identical to a
// serial run and to a thread-pool run of the same grid, each in its own
// store.
//
//   Usage: fabric_grid [--procs N] [--crash-nth K] [--zoo DIR]
//                      [--serial-zoo DIR] [--steps N] [--episodes N]
//                      [--scenario SPEC] [--compare]
//
//   --procs N       worker processes for the DAG run (default 2)
//   --crash-nth K   crash drill: kill the worker executing the Kth attack
//                   dispatch mid-cell; the scheduler must re-dispatch it and
//                   resume from the snapshot (default 0 = off)
//   --zoo DIR       artifact store for the DAG run (default ./fabric_zoo)
//   --serial-zoo D  store for the serial reference run (default <zoo>_serial);
//                   the thread-pool run uses <serial-zoo>_threads
//   --steps N       attack training steps per cell (default 4096)
//   --episodes N    eval episodes per cell (default 10)
//   --scenario S    append an SA-RL attack cell over scenario string S (e.g.
//                   "hopper+obs_delay:1+dr[mass:0.9..1.1]@7"); it shares its
//                   base env's victim node with the baseline cells
//   --compare       also run the grid in-process serially (ScopedSerial) and
//                   on a 4-thread pool (fresh stores) and bit-compare every
//                   outcome of all three runs; exit 1 on any mismatch
//
// Exit status: 0 on success (and bit-identical outcomes under --compare),
// 1 on mismatch or bad usage. This is the ci.sh fabric stage's workhorse.

#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common/config.h"
#include "common/thread_pool.h"
#include "core/experiment.h"
#include "core/experiment_dag.h"

int main(int argc, char** argv) {
  int procs = 2;
  int crash_nth = 0;
  long long steps = 4096;
  int episodes = 10;
  bool compare = false;
  std::string zoo = "./fabric_zoo";
  std::string serial_zoo;
  std::string scenario;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "fabric_grid: " << arg << " needs a value\n";
        std::exit(1);
      }
      return argv[++i];
    };
    if (arg == "--procs") procs = std::stoi(next());
    else if (arg == "--crash-nth") crash_nth = std::stoi(next());
    else if (arg == "--zoo") zoo = next();
    else if (arg == "--serial-zoo") serial_zoo = next();
    else if (arg == "--steps") steps = std::stoll(next());
    else if (arg == "--episodes") episodes = std::stoi(next());
    else if (arg == "--scenario") scenario = next();
    else if (arg == "--compare") compare = true;
    else {
      std::cerr << "fabric_grid: unknown flag " << arg << "\n";
      return 1;
    }
  }
  if (serial_zoo.empty()) serial_zoo = zoo + "_serial";

  // A small grid with real DAG structure: three attack cells sharing one
  // victim checkpoint (SparseHopper deploys the dense Hopper victim).
  using imap::core::AttackKind;
  std::vector<imap::core::AttackPlan> plans;
  for (const auto& [env, kind] :
       std::vector<std::pair<std::string, AttackKind>>{
           {"Hopper", AttackKind::None},
           {"Hopper", AttackKind::ImapPC},
           {"SparseHopper", AttackKind::ImapSC}}) {
    imap::core::AttackPlan p;
    p.env_name = env;
    p.attack = kind;
    p.attack_steps = steps;
    p.eval_episodes = episodes;
    plans.push_back(p);
  }
  if (!scenario.empty()) {
    // Randomized-scenario cell: the full channel/DR pipeline under an SA-RL
    // adversary, scheduled through the same DAG (and victim dedup) as the
    // baseline cells.
    imap::core::AttackPlan p;
    p.scenario = scenario;
    p.attack = AttackKind::SaRl;
    p.attack_steps = steps;
    p.eval_episodes = episodes;
    plans.push_back(p);
  }

  imap::BenchConfig cfg = imap::BenchConfig::from_env();
  cfg.zoo_dir = zoo;
  if (cfg.snapshot_every <= 0) cfg.snapshot_every = 1;  // crash drill fodder

  imap::core::DagOptions dopts;
  dopts.procs = procs;
  dopts.crash_nth_attack = crash_nth;
  imap::core::DagScheduler sched(cfg, dopts);
  const auto out = sched.run(plans);
  const auto& st = sched.stats();
  std::cout << "{\"nodes\": " << st.nodes << ", \"procs\": " << st.procs
            << ", \"dispatched\": " << st.dispatched
            << ", \"re_dispatched\": " << st.re_dispatched
            << ", \"worker_deaths\": " << st.worker_deaths << "}\n";

  if (crash_nth > 0 && (st.worker_deaths < 1 || st.re_dispatched < 1)) {
    std::cerr << "fabric_grid: crash drill did not kill/re-dispatch\n";
    return 1;
  }

  if (compare) {
    // In-process runs of the same grid: the serial reference, then the
    // thread executor on a real 4-thread pool whatever the host's width.
    const auto in_process = [&](const std::string& store) {
      imap::BenchConfig scfg = cfg;
      scfg.zoo_dir = store;
      imap::core::DagOptions sopts;
      sopts.procs = 1;
      return imap::core::DagScheduler(scfg, sopts).run(plans);
    };
    std::vector<imap::core::AttackOutcome> ref;
    {
      imap::ScopedSerial inline_only;
      ref = in_process(serial_zoo);
    }
    std::vector<imap::core::AttackOutcome> threaded;
    {
      imap::ThreadPool pool(4);
      imap::ScopedPool scope(pool);
      threaded = in_process(serial_zoo + "_threads");
    }
    for (std::size_t i = 0; i < plans.size(); ++i) {
      for (const auto& [name, got] :
           {std::pair<const char*, const imap::core::AttackOutcome*>{
                "procs", &out[i]},
            {"threads", &threaded[i]}}) {
        if (imap::core::identical_results(*got, ref[i])) continue;
        std::cerr << "fabric_grid: MISMATCH " << name << " vs serial in plan "
                  << i << " ("
                  << (plans[i].scenario.empty() ? plans[i].env_name
                                                : plans[i].scenario)
                  << ")\n";
        return 1;
      }
    }
    std::cout << "procs, threads vs serial: " << plans.size()
              << " outcomes bit-identical\n";
  }
  return 0;
}
