#include "core/experiment_dag.h"

#include <chrono>
#include <deque>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "common/proc.h"
#include "common/serialize.h"
#include "common/thread_pool.h"
#include "env/registry.h"

namespace imap::core {

namespace {

// Request/reply payloads ride the framed-Archive wire format of
// proc::Channel: one section per logical field group, CRC-verified end to
// end.
constexpr std::uint64_t kKindVictim = 0;
constexpr std::uint64_t kKindGameVictim = 1;
constexpr std::uint64_t kKindAttack = 2;

std::uint64_t kind_code(DagNode::Kind k) {
  switch (k) {
    case DagNode::Kind::Victim: return kKindVictim;
    case DagNode::Kind::GameVictim: return kKindGameVictim;
    case DagNode::Kind::Attack: return kKindAttack;
  }
  return kKindAttack;
}

void write_plan(BinaryWriter& w, const AttackPlan& p) {
  w.write_string(p.env_name);
  w.write_string(p.scenario);
  w.write_string(p.defense);
  w.write_i64(static_cast<long long>(p.attack));
  w.write_bool(p.bias_reduction);
  w.write_f64(p.eta);
  w.write_f64(p.xi);
  w.write_f64(p.tau0);
  w.write_i64(p.attack_steps);
  w.write_i64(p.eval_episodes);
}

AttackPlan read_plan(BinaryReader& r) {
  AttackPlan p;
  p.env_name = r.read_string();
  p.scenario = r.read_string();
  p.defense = r.read_string();
  p.attack = static_cast<AttackKind>(r.read_i64());
  p.bias_reduction = r.read_bool();
  p.eta = r.read_f64();
  p.xi = r.read_f64();
  p.tau0 = r.read_f64();
  p.attack_steps = r.read_i64();
  p.eval_episodes = static_cast<int>(r.read_i64());
  return p;
}

/// One cell worker: a persistent ExperimentRunner executing whichever node
/// the coordinator sends next. Victim/attack artifacts land in the shared
/// zoo under file locks, so any worker can execute any node.
void dag_worker_body(proc::Channel& ch, const BenchConfig& cfg) {
  ExperimentRunner runner(cfg);
  ArchiveReader req;
  while (ch.recv(req)) {
    auto r = req.section("dag/req");
    const std::uint64_t kind = r.read_u64();
    const bool crash = r.read_bool();
    const AttackPlan plan = read_plan(r);
    // Wall-clock telemetry only (per-node seconds for bench reports); it
    // never feeds results or control flow.
    const auto t0 = std::chrono::steady_clock::now();  // imap-check: allow(nondet-source)
    ArchiveWriter rep;
    if (kind == kKindAttack) {
      if (crash) {
        // Crash drill: halt the cell after one training iteration (leaving
        // its resumable snapshot on disk) and die without replying — the
        // coordinator must detect the death and re-dispatch the cell.
        BenchConfig crash_cfg = cfg;
        crash_cfg.halt_after_iters = 1;
        ExperimentRunner doomed(crash_cfg);
        doomed.run(plan);
        std::fflush(nullptr);
        ::_exit(42);
      }
      const AttackOutcome out = runner.run(plan);
      auto& w = rep.section("dag/out");
      w.write_bool(out.completed);
      write_results(w, out);
    } else if (kind == kKindGameVictim) {
      runner.zoo().game_victim(plan.env_name);
    } else {
      runner.zoo().victim(plan.env_name, plan.defense);
    }
    const auto t1 = std::chrono::steady_clock::now();  // imap-check: allow(nondet-source)
    rep.section("dag/ok").write_f64(
        std::chrono::duration<double>(t1 - t0).count());
    if (!ch.send(rep)) break;  // coordinator is gone; shut down
  }
}

}  // namespace

std::vector<DagNode> build_experiment_dag(
    ExperimentRunner& runner, const std::vector<AttackPlan>& plans,
    std::vector<std::size_t>& node_of_plan) {
  std::vector<DagNode> nodes;
  std::unordered_map<std::string, std::size_t> victim_of;  // identity → node
  std::unordered_map<std::string, std::size_t> attack_of;  // cache key → node
  node_of_plan.assign(plans.size(), 0);
  for (std::size_t i = 0; i < plans.size(); ++i) {
    // Canonicalize before any key is derived: equal scenarios share one
    // attack node however they were spelled, and a scenario cell's victim
    // node is the BASE env's victim (shared with the baseline cells).
    const AttackPlan plan = runner.normalize_plan(plans[i]);
    const bool multi =
        env::spec(plan.env_name).type == env::TaskType::MultiAgent;
    // Victim checkpoint identity: the game for multi-agent tasks, the
    // TRAINING env × defense for single-agent ones (sparse tasks deploy
    // their dense counterpart's victim — see Zoo::victim).
    const std::string vkey =
        multi ? "game|" + plan.env_name
              : env::make_training_env(plan.env_name)->name() + "|" +
                    plan.defense;
    auto vit = victim_of.find(vkey);
    if (vit == victim_of.end()) {
      DagNode v;
      v.kind = multi ? DagNode::Kind::GameVictim : DagNode::Kind::Victim;
      v.env_name = plan.env_name;
      v.defense = plan.defense;
      vit = victim_of.emplace(vkey, nodes.size()).first;
      nodes.push_back(std::move(v));
    }
    const long long steps = plan.attack_steps
                                ? plan.attack_steps
                                : runner.default_attack_steps(plan.env_name);
    const int episodes = plan.eval_episodes
                             ? plan.eval_episodes
                             : runner.default_eval_episodes(plan.env_name);
    const auto akey = runner.cache_key(plan, steps, episodes);
    auto ait = attack_of.find(akey);
    if (ait == attack_of.end()) {
      DagNode a;
      a.kind = DagNode::Kind::Attack;
      a.env_name = plan.env_name;
      a.plan = plan;
      a.deps.push_back(vit->second);
      ait = attack_of.emplace(akey, nodes.size()).first;
      nodes.push_back(std::move(a));
    }
    node_of_plan[i] = ait->second;
  }
  return nodes;
}

DagScheduler::DagScheduler(BenchConfig cfg, DagOptions opts)
    : cfg_(cfg), opts_(opts), runner_(cfg) {}

std::vector<AttackOutcome> DagScheduler::run(
    const std::vector<AttackPlan>& plans) {
  std::vector<std::size_t> node_of_plan;
  nodes_ = build_experiment_dag(runner_, plans, node_of_plan);
  node_seconds_.assign(nodes_.size(), 0.0);
  stats_ = DagStats{};
  stats_.nodes = static_cast<int>(nodes_.size());
  const int procs =
      opts_.procs > 0 ? opts_.procs : proc::configured_procs();
  stats_.procs = procs;

  std::vector<AttackOutcome> node_out(nodes_.size());
  if (procs <= 1)
    run_threads(node_out);
  else
    run_pool(node_out, procs);

  std::vector<AttackOutcome> out(plans.size());
  for (std::size_t i = 0; i < plans.size(); ++i) {
    out[i] = node_out[node_of_plan[i]];
    out[i].plan = plans[i];
  }
  return out;
}

void DagScheduler::run_threads(std::vector<AttackOutcome>& node_out) {
  // Each attack node has exactly one dependency, its victim.
  std::vector<std::size_t> victims;
  std::vector<std::vector<std::size_t>> attacks_of(nodes_.size());
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    if (nodes_[n].kind == DagNode::Kind::Attack)
      attacks_of[nodes_[n].deps[0]].push_back(n);
    else
      victims.push_back(n);
  }
  const auto run_node = [&](std::size_t n) {
    ScopedSerial one_thread_per_node;
    const auto& node = nodes_[n];
    const auto t0 = std::chrono::steady_clock::now();  // imap-check: allow(nondet-source)
    switch (node.kind) {
      case DagNode::Kind::Victim:
        runner_.zoo().victim(node.env_name, node.defense);
        break;
      case DagNode::Kind::GameVictim:
        runner_.zoo().game_victim(node.env_name);
        break;
      case DagNode::Kind::Attack:
        node_out[n] = runner_.run(node.plan);
        break;
    }
    const auto t1 = std::chrono::steady_clock::now();  // imap-check: allow(nondet-source)
    node_seconds_[n] = std::chrono::duration<double>(t1 - t0).count();
  };
  // Every victim is a task; once it is trained, its attacks fan out as a
  // nested region, so they overlap victims still training elsewhere. The
  // parallelism is across nodes: each node body runs serially on its
  // thread (results do not depend on it), so at most one cell per thread
  // is in flight.
  //
  // Deadlock invariant: proc::FileLock is not re-entrant (its owner pid is
  // alive, so it is never stolen), and a thread waiting inside a nested
  // parallel_for may run ANY pending task. That is safe only because no
  // task that takes lock L is runnable while L is held: a victim's lock is
  // held only by its own task (victim nodes are deduplicated) and its
  // attacks are submitted after training returns, when they find the
  // checkpoint without locking; a cell's lock is held only by its own task
  // (attack nodes are deduplicated by cache key). The serial node bodies
  // add a second guard: a thread only waits, and so only steals, between
  // nodes, when it holds no lock at all. Keep both when changing this
  // executor.
  parallel_for(
      victims.size(),
      [&](std::size_t v) {
        run_node(victims[v]);
        const auto& attacks = attacks_of[victims[v]];
        parallel_for(
            attacks.size(), [&](std::size_t a) { run_node(attacks[a]); },
            /*grain=*/1);
      },
      /*grain=*/1);
  stats_.dispatched = stats_.nodes;
}

void DagScheduler::run_pool(std::vector<AttackOutcome>& node_out, int procs) {
  const std::size_t n = nodes_.size();
  std::vector<int> indeg(n, 0);
  std::vector<std::vector<std::size_t>> rdeps(n);
  for (std::size_t i = 0; i < n; ++i) {
    indeg[i] = static_cast<int>(nodes_[i].deps.size());
    for (const auto d : nodes_[i].deps) rdeps[d].push_back(i);
  }
  std::deque<std::size_t> ready;
  for (std::size_t i = 0; i < n; ++i)
    if (indeg[i] == 0) ready.push_back(i);

  struct Slot {
    proc::WorkerProcess proc;
    bool busy = false;
    std::size_t node = 0;
  };
  const BenchConfig cfg = cfg_;
  const auto spawn = [&cfg]() {
    return proc::WorkerProcess::spawn(
        [cfg](proc::Channel& ch) { dag_worker_body(ch, cfg); });
  };
  const int pool = std::min<int>(procs, static_cast<int>(n));
  std::vector<Slot> slots(static_cast<std::size_t>(pool));
  for (auto& s : slots) s.proc = spawn();

  std::vector<int> attempts(n, 0);
  int attack_dispatches = 0;
  std::size_t done = 0;

  // A dead worker surfaces in two ways: send() to an idle one fails, or
  // recv() from a busy one returns false / throws on a torn frame. Either
  // way the slot is respawned; a busy slot's node goes back to the FRONT of
  // the ready queue (it may be a dependency bottleneck) and the replacement
  // attempt resumes from whatever snapshot/cache state the crashed run left.
  const auto note_death = [&](Slot& s) {
    s.proc.join();  // reap; nonzero exit is expected here
    ++stats_.worker_deaths;
    if (s.busy) {
      s.busy = false;
      IMAP_CHECK_MSG(attempts[s.node] < opts_.max_attempts,
                     "DAG node " << s.node << " failed "
                                 << attempts[s.node] << " attempts");
      ready.push_front(s.node);
      ++stats_.re_dispatched;
    }
    s.proc = spawn();
  };

  std::vector<int> poll_fds;
  std::vector<std::size_t> poll_slots;
  while (done < n) {
    // Hand every ready node to an idle worker (pull-based: the queue is
    // shared, so a slow cell never strands ready work on one process).
    for (auto& s : slots) {
      if (s.busy || ready.empty()) continue;
      const std::size_t node = ready.front();
      ready.pop_front();
      ArchiveWriter req;
      auto& w = req.section("dag/req");
      w.write_u64(kind_code(nodes_[node].kind));
      bool crash = false;
      if (nodes_[node].kind == DagNode::Kind::Attack) {
        ++attack_dispatches;
        crash = opts_.crash_nth_attack > 0 &&
                attack_dispatches == opts_.crash_nth_attack;
      }
      w.write_bool(crash);
      AttackPlan plan = nodes_[node].plan;
      if (nodes_[node].kind != DagNode::Kind::Attack) {
        plan.env_name = nodes_[node].env_name;
        plan.defense = nodes_[node].defense;
      }
      write_plan(w, plan);
      while (!s.proc.channel().send(req)) note_death(s);
      s.busy = true;
      s.node = node;
      ++attempts[node];
      ++stats_.dispatched;
    }

    poll_fds.clear();
    poll_slots.clear();
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (!slots[i].busy) continue;
      poll_fds.push_back(slots[i].proc.channel().read_fd());
      poll_slots.push_back(i);
    }
    IMAP_CHECK_MSG(!poll_fds.empty(), "DAG deadlock: no busy worker but "
                                          << (n - done) << " nodes pending");
    for (const auto p : proc::poll_readable(poll_fds)) {
      Slot& s = slots[poll_slots[p]];
      ArchiveReader rep;
      bool ok = false;
      try {
        ok = s.proc.channel().recv(rep);
      } catch (const CheckError&) {
        ok = false;  // torn frame from a mid-write death
      }
      if (!ok) {
        note_death(s);
        continue;
      }
      const std::size_t node = s.node;
      node_seconds_[node] = rep.section("dag/ok").read_f64();
      if (nodes_[node].kind == DagNode::Kind::Attack) {
        auto r = rep.section("dag/out");
        node_out[node].completed = r.read_bool();
        read_results(r, node_out[node]);
      }
      s.busy = false;
      ++done;
      for (const auto rd : rdeps[node])
        if (--indeg[rd] == 0) ready.push_back(rd);
    }
  }

  for (auto& s : slots) {
    const int rc = s.proc.join();
    IMAP_CHECK_MSG(rc == 0, "DAG worker exited with status " << rc);
  }
}

}  // namespace imap::core
