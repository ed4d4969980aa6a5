// bench_fabric: the grid-executor probe, merged into BENCH_parallel.json in
// the working directory (see README "Grid executor"). One Table-1 Hopper row
// — 6 victims (PPO, ATLA, SA, ATLA-SA, RADIAL, WocaR) × 7 attacks, 42
// cells — runs through core::DagScheduler twice, each into a fresh store
// so nothing is cached: serially (ScopedSerial) and on a 4-thread pool.
// The probe exits nonzero unless both legs are bit-identical, and records
// the scale, hardware_threads, each leg's wall-clock and the serial leg's
// per-node wall-clock (the critical path: the slowest victim plus its
// slowest attack).
//
// On a host with fewer than 4 hardware threads the pool leg time-slices;
// hardware_threads is recorded so readers can tell which regime a row came
// from.

#include <chrono>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/config.h"
#include "common/thread_pool.h"
#include "core/experiment_dag.h"
#include "grid_runner.h"

using namespace imap;

namespace {

constexpr int kWidth = 4;  ///< threads of the pool leg

std::vector<core::AttackPlan> hopper_row() {
  std::vector<core::AttackPlan> plans;
  for (const char* defense :
       {"PPO", "ATLA", "SA", "ATLA-SA", "RADIAL", "WocaR"})
    for (const auto attack :
         {core::AttackKind::None, core::AttackKind::Random,
          core::AttackKind::SaRl, core::AttackKind::ImapSC,
          core::AttackKind::ImapPC, core::AttackKind::ImapR,
          core::AttackKind::ImapD}) {
      core::AttackPlan p;
      p.env_name = "Hopper";
      p.defense = defense;
      p.attack = attack;
      plans.push_back(p);
    }
  return plans;
}

struct Leg {
  double seconds = 0.0;
  std::vector<core::AttackOutcome> out;
  std::vector<std::pair<std::string, double>> node_secs;
};

/// Run the row once through the scheduler into a fresh store at `zoo`.
Leg run_leg(const std::string& zoo) {
  std::filesystem::remove_all(zoo);
  BenchConfig cfg = BenchConfig::from_env();
  cfg.zoo_dir = zoo;
  core::DagScheduler sched(cfg);
  Leg leg;
  const auto t0 = std::chrono::steady_clock::now();
  leg.out = sched.run(hopper_row());
  leg.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  for (std::size_t i = 0; i < sched.nodes().size(); ++i)
    leg.node_secs.emplace_back(bench::node_label(sched.nodes()[i]),
                               sched.node_seconds()[i]);
  std::filesystem::remove_all(zoo);
  return leg;
}

bool identical(const Leg& a, const Leg& b) {
  if (a.out.size() != b.out.size()) return false;
  for (std::size_t i = 0; i < a.out.size(); ++i)
    if (!core::identical_results(a.out[i], b.out[i])) return false;
  return true;
}

}  // namespace

int main() {
  const BenchConfig cfg = BenchConfig::from_env();
  Leg serial;
  {
    ScopedSerial inline_only;
    serial = run_leg("./bench_fabric_zoo_serial");
  }
  Leg threads;
  {
    ThreadPool pool(kWidth);
    ScopedPool scope(pool);
    threads = run_leg("./bench_fabric_zoo_threads");
  }
  const bool ok = identical(serial, threads);

  const double cells = static_cast<double>(serial.out.size());
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(3);
  os << "{\"hardware_threads\": " << std::thread::hardware_concurrency()
     << ", \"scale\": " << cfg.scale << ", \"grid\": {\"row\": \"Hopper\""
     << ", \"cells\": " << serial.out.size() << ", \"width\": " << kWidth;
  for (const auto& [name, leg] :
       {std::pair<const char*, const Leg*>{"serial", &serial},
        {"threads", &threads}})
    os << ", \"" << name << "_s\": " << leg->seconds << ", \"" << name
       << "_cells_per_s\": " << (leg->seconds > 0.0 ? cells / leg->seconds : 0.0);
  os << ", \"traces_identical\": " << (ok ? "true" : "false")
     << ", \"serial_node_wall_s\": {";
  for (std::size_t i = 0; i < serial.node_secs.size(); ++i) {
    if (i) os << ", ";
    os << '"' << serial.node_secs[i].first
       << "\": " << serial.node_secs[i].second;
  }
  os << "}}}";
  bench::write_parallel_report_entry("bench_fabric", os.str());
  std::cerr << "bench_fabric: Hopper row (" << serial.out.size()
            << " cells, scale " << cfg.scale << ") serial " << serial.seconds
            << "s, " << kWidth << " threads " << threads.seconds
            << "s; outcomes "
            << (ok ? "identical" : "DIVERGED") << " -> BENCH_parallel.json\n";
  // Wall-clock varies with the host; identity never may. Nonzero exit makes
  // the ci bench-smoke stage a real gate on divergence.
  return ok ? 0 : 1;
}
