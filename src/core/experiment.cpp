#include "core/experiment.h"

#include <algorithm>
#include <filesystem>
#include <sstream>

#include "common/serialize.h"

#include "attack/ap_marl.h"
#include "attack/random_attack.h"
#include "attack/sa_rl.h"
#include "common/check.h"
#include "common/proc.h"
#include "env/registry.h"
#include "scenario/scenario_env.h"
#include "scenario/spec.h"

namespace imap::core {

std::string to_string(AttackKind kind) {
  switch (kind) {
    case AttackKind::None: return "No Attack";
    case AttackKind::Random: return "Random";
    case AttackKind::SaRl: return "SA-RL";
    case AttackKind::ApMarl: return "AP-MARL";
    case AttackKind::ImapSC: return "IMAP-SC";
    case AttackKind::ImapPC: return "IMAP-PC";
    case AttackKind::ImapR: return "IMAP-R";
    case AttackKind::ImapD: return "IMAP-D";
  }
  return "?";
}

bool is_imap(AttackKind kind) {
  return kind == AttackKind::ImapSC || kind == AttackKind::ImapPC ||
         kind == AttackKind::ImapR || kind == AttackKind::ImapD;
}

RegularizerType regularizer_of(AttackKind kind) {
  switch (kind) {
    case AttackKind::ImapSC: return RegularizerType::SC;
    case AttackKind::ImapPC: return RegularizerType::PC;
    case AttackKind::ImapR: return RegularizerType::R;
    case AttackKind::ImapD: return RegularizerType::D;
    default: break;
  }
  IMAP_CHECK_MSG(false, to_string(kind) << " is not an IMAP attack");
  return RegularizerType::SC;  // unreachable
}

std::vector<AttackKind> imap_attacks() {
  return {AttackKind::ImapSC, AttackKind::ImapPC, AttackKind::ImapR,
          AttackKind::ImapD};
}

ExperimentRunner::ExperimentRunner(BenchConfig cfg)
    : cfg_(cfg),
      zoo_(cfg.zoo_dir, cfg.scale, cfg.seed, cfg.snapshot_every) {}

std::string ExperimentRunner::snapshot_path(const std::string& key) const {
  return cfg_.zoo_dir + "/snapshots/" + key + ".snap";
}

long long ExperimentRunner::default_attack_steps(
    const std::string& env_name) const {
  long long base = 80'000;
  switch (env::spec(env_name).type) {
    case env::TaskType::DenseLocomotion: base = 120'000; break;
    case env::TaskType::SparseLocomotion: base = 160'000; break;
    case env::TaskType::Navigation: base = 160'000; break;
    case env::TaskType::Manipulation: base = 80'000; break;
    case env::TaskType::MultiAgent: base = 120'000; break;
  }
  return std::max<long long>(
      4096, static_cast<long long>(static_cast<double>(base) * cfg_.scale));
}

int ExperimentRunner::default_eval_episodes(
    const std::string& env_name) const {
  // Paper: 300 episodes (Table 1), 1000 (Table 2), game win rates (Fig. 5).
  int base = 100;
  switch (env::spec(env_name).type) {
    case env::TaskType::DenseLocomotion: base = 100; break;
    case env::TaskType::MultiAgent: base = 200; break;
    default: base = 200; break;
  }
  return std::max(10, static_cast<int>(base * std::min(1.0, cfg_.scale * 2)));
}

rl::PpoOptions ExperimentRunner::attack_ppo_options() const {
  return rl::PpoOptions{};  // library defaults, shared by every attack

}

Rng ExperimentRunner::plan_rng(const AttackPlan& plan) const {
  Rng seeder(cfg_.seed);
  std::uint64_t stream = 0;
  // The canonical scenario string IS the cell identity when present; plans
  // without one keep the historical env_name stream bit-for-bit.
  const std::string& identity =
      plan.scenario.empty() ? plan.env_name : plan.scenario;
  const std::string key = identity + "|" + plan.defense + "|" +
                          to_string(plan.attack) +
                          (plan.bias_reduction ? "|BR" : "");
  for (const char c : key) stream = stream * 131 + static_cast<unsigned char>(c);
  return seeder.split(stream ^ 0xa77ac4ULL);
}

ImapOptions ExperimentRunner::imap_options(const AttackPlan& plan,
                                           const std::string& env_name) const {
  ImapOptions opts;
  opts.reg.type = regularizer_of(plan.attack);
  opts.reg.xi = plan.xi;
  opts.bias_reduction = plan.bias_reduction;
  opts.eta = plan.eta;
  opts.tau0 = plan.tau0;
  opts.ppo = attack_ppo_options();
  // Dense tasks: per-step surrogate indicators sum to O(max_steps) per
  // episode; normalise so BR's η has a task-independent meaning.
  if (env::spec(env_name).type == env::TaskType::DenseLocomotion)
    opts.surrogate_scale = env::make_env(env_name)->max_steps();
  return opts;
}

namespace {

void write_curve(BinaryWriter& w, const std::vector<CurvePoint>& curve) {
  w.write_u64(curve.size());
  for (const auto& p : curve) {
    w.write_i64(p.steps);
    w.write_f64(p.victim_success);
    w.write_f64(p.tau);
  }
}

std::vector<CurvePoint> read_curve(BinaryReader& r) {
  std::vector<CurvePoint> curve(r.read_u64());
  for (auto& p : curve) {
    p.steps = r.read_i64();
    p.victim_success = r.read_f64();
    p.tau = r.read_f64();
  }
  return curve;
}

}  // namespace

void write_results(BinaryWriter& w, const AttackOutcome& out) {
  w.write_f64(out.victim_eval.returns.mean);
  w.write_f64(out.victim_eval.returns.stddev);
  w.write_u64(out.victim_eval.returns.episodes);
  w.write_f64(out.victim_eval.success_rate);
  w.write_f64(out.victim_eval.mean_length);
  w.write_vec(out.victim_eval.episode_returns);
  write_curve(w, out.curve);
}

void read_results(BinaryReader& r, AttackOutcome& out) {
  out.victim_eval.returns.mean = r.read_f64();
  out.victim_eval.returns.stddev = r.read_f64();
  out.victim_eval.returns.episodes = r.read_u64();
  out.victim_eval.success_rate = r.read_f64();
  out.victim_eval.mean_length = r.read_f64();
  out.victim_eval.episode_returns = r.read_vec();
  out.curve = read_curve(r);
}

bool identical_results(const AttackOutcome& a, const AttackOutcome& b) {
  BinaryWriter wa;
  BinaryWriter wb;
  write_results(wa, a);
  write_results(wb, b);
  return a.completed == b.completed && wa.buffer() == wb.buffer();
}

namespace {

/// Snapshot/halt policy for one attack-training run.
struct ResumeCfg {
  std::string snap;          ///< snapshot file ("" disables persistence)
  int every = 0;             ///< iterations between periodic snapshots
  long long halt_after = 0;  ///< stop after N iterations this process
};

/// Drive `attacker` (SaRl / ApMarl / ImapTrainer) to `steps`, resuming from
/// and periodically writing a snapshot that carries the trainer state plus
/// the learning curve so far. Returns false if halted early by halt_after.
template <typename Attacker>
bool train_attacker(Attacker& attacker, long long steps, const ResumeCfg& rc,
                    std::vector<CurvePoint>& curve) {
  ArchiveReader a;
  if (!rc.snap.empty() && ArchiveReader::load(rc.snap, a)) {
    attacker.load_state(a);
    auto r = a.section("runner/curve");
    curve = read_curve(r);
  }
  long long iters = 0;
  while (attacker.trainer().steps_done() < steps) {
    const auto s = attacker.iterate();
    curve.push_back({s.total_steps, s.mean_surrogate, s.tau});
    ++iters;
    const bool more = attacker.trainer().steps_done() < steps;
    const bool halting = rc.halt_after > 0 && iters >= rc.halt_after && more;
    const bool periodic = rc.every > 0 && iters % rc.every == 0 && more;
    if (!rc.snap.empty() && (halting || periodic)) {
      std::filesystem::create_directories(
          std::filesystem::path(rc.snap).parent_path());
      ArchiveWriter w;
      attacker.save_state(w);
      auto& c = w.section("runner/curve");
      write_curve(c, curve);
      IMAP_CHECK_MSG(w.save(rc.snap),
                     "failed to write snapshot " << rc.snap);
    }
    if (halting) return false;
  }
  if (!rc.snap.empty()) std::filesystem::remove(rc.snap);
  return true;
}

}  // namespace

AttackOutcome ExperimentRunner::run_single_agent(const AttackPlan& plan,
                                                 const std::string& key) {
  const auto deploy_env = env::make_env(plan.env_name);
  const auto victim_policy = zoo_.victim(plan.env_name, plan.defense);
  // Network-backed handle: vectorized attack rollouts can batch the victim.
  const auto victim = Zoo::as_policy(victim_policy);
  const double eps = env::spec(plan.env_name).epsilon;

  Rng rng = plan_rng(plan);
  const long long steps =
      plan.attack_steps ? plan.attack_steps
                        : default_attack_steps(plan.env_name);
  const int episodes = plan.eval_episodes
                           ? plan.eval_episodes
                           : default_eval_episodes(plan.env_name);

  AttackOutcome out;
  out.plan = plan;
  Rng eval_rng = rng.split(0xe7a1ULL);

  switch (plan.attack) {
    case AttackKind::None: {
      out.victim_eval = attack::evaluate_attack(
          *deploy_env, victim, attack::make_null_attack(deploy_env->obs_dim()),
          eps, episodes, eval_rng);
      return out;
    }
    case AttackKind::Random: {
      out.victim_eval = attack::evaluate_attack(
          *deploy_env, victim,
          attack::make_random_attack(deploy_env->obs_dim(), rng.split(3)),
          eps, episodes, eval_rng);
      return out;
    }
    case AttackKind::SaRl: {
      attack::SaRl attacker(*deploy_env, victim, eps, attack_ppo_options(),
                            rng);
      out.completed = train_attacker(
          attacker, steps,
          {snapshot_path(key), cfg_.snapshot_every, cfg_.halt_after_iters},
          out.curve);
      if (!out.completed) return out;
      out.victim_eval = attack::evaluate_attack(
          *deploy_env, victim, attacker.adversary(), eps, episodes, eval_rng);
      return out;
    }
    case AttackKind::ApMarl:
      IMAP_CHECK_MSG(false, "AP-MARL is a multi-agent attack");
      return out;
    default: {
      ImapTrainer attacker(*deploy_env, victim, eps,
                           imap_options(plan, plan.env_name), rng);
      out.completed = train_attacker(
          attacker, steps,
          {snapshot_path(key), cfg_.snapshot_every, cfg_.halt_after_iters},
          out.curve);
      if (!out.completed) return out;
      out.victim_eval = attack::evaluate_attack(
          *deploy_env, victim, attacker.adversary(), eps, episodes, eval_rng);
      return out;
    }
  }
}

AttackOutcome ExperimentRunner::run_scenario(const AttackPlan& plan,
                                             const std::string& key) {
  const auto spec = scenario::parse(plan.scenario);
  const auto victim_policy = zoo_.victim(spec.env, plan.defense);
  const auto victim = Zoo::as_policy(victim_policy);

  Rng rng = plan_rng(plan);
  const long long steps =
      plan.attack_steps ? plan.attack_steps
                        : default_attack_steps(plan.env_name);
  const int episodes = plan.eval_episodes
                           ? plan.eval_episodes
                           : default_eval_episodes(plan.env_name);

  AttackOutcome out;
  out.plan = plan;
  Rng eval_rng = rng.split(0xe7a1ULL);

  // Deployment view: the victim's TRUE reward under the full channel stack
  // (delay/dropout/noise/dr hit the victim even when no adversary acts).
  const auto eval_env = scenario::make_scenario_env(
      spec, victim, attack::RewardMode::VictimTrue);

  switch (plan.attack) {
    case AttackKind::None: {
      out.victim_eval = rl::evaluate(
          *eval_env, attack::make_null_attack(eval_env->act_dim()), episodes,
          eval_rng);
      return out;
    }
    case AttackKind::Random: {
      out.victim_eval = rl::evaluate(
          *eval_env,
          attack::make_random_attack(eval_env->act_dim(), rng.split(3)),
          episodes, eval_rng);
      return out;
    }
    case AttackKind::SaRl: {
      const auto attack_env = scenario::make_scenario_env(
          spec, victim, attack::RewardMode::Adversary);
      attack::SaRl attacker(*attack_env, attack_ppo_options(), rng);
      out.completed = train_attacker(
          attacker, steps,
          {snapshot_path(key), cfg_.snapshot_every, cfg_.halt_after_iters},
          out.curve);
      if (!out.completed) return out;
      out.victim_eval =
          rl::evaluate(*eval_env, attacker.adversary(), episodes, eval_rng);
      return out;
    }
    case AttackKind::ApMarl:
      IMAP_CHECK_MSG(false, "AP-MARL has no scenario-layer threat model");
      return out;
    default: {
      ImapTrainer attacker(
          *scenario::make_scenario_env(spec, victim,
                                       attack::RewardMode::Adversary),
          imap_options(plan, plan.env_name), rng);
      out.completed = train_attacker(
          attacker, steps,
          {snapshot_path(key), cfg_.snapshot_every, cfg_.halt_after_iters},
          out.curve);
      if (!out.completed) return out;
      out.victim_eval =
          rl::evaluate(*eval_env, attacker.adversary(), episodes, eval_rng);
      return out;
    }
  }
}

AttackOutcome ExperimentRunner::run_multi_agent(const AttackPlan& plan,
                                                const std::string& key) {
  const auto game = env::make_multiagent_env(plan.env_name);
  const auto victim_policy = zoo_.game_victim(plan.env_name);
  const auto victim = Zoo::as_policy(victim_policy);

  Rng rng = plan_rng(plan);
  const long long steps =
      plan.attack_steps ? plan.attack_steps
                        : default_attack_steps(plan.env_name);
  const int episodes = plan.eval_episodes
                           ? plan.eval_episodes
                           : default_eval_episodes(plan.env_name);

  AttackOutcome out;
  out.plan = plan;
  Rng eval_rng = rng.split(0xe7a1ULL);

  if (plan.attack == AttackKind::ApMarl) {
    attack::ApMarl attacker(*game, victim, attack_ppo_options(), rng);
    out.completed = train_attacker(
        attacker, steps,
        {snapshot_path(key), cfg_.snapshot_every, cfg_.halt_after_iters},
        out.curve);
    if (!out.completed) return out;
    out.victim_eval = attack::evaluate_opponent_attack(
        *game, victim, attacker.adversary(), episodes, eval_rng);
    return out;
  }
  IMAP_CHECK_MSG(is_imap(plan.attack),
                 to_string(plan.attack) << " unsupported in multi-agent");
  ImapTrainer attacker(*game, victim, imap_options(plan, plan.env_name), rng);
  out.completed = train_attacker(
      attacker, steps,
      {snapshot_path(key), cfg_.snapshot_every, cfg_.halt_after_iters},
      out.curve);
  if (!out.completed) return out;
  out.victim_eval = attack::evaluate_opponent_attack(
      *game, victim, attacker.adversary(), episodes, eval_rng);
  return out;
}

AttackPlan ExperimentRunner::normalize_plan(AttackPlan plan) const {
  if (plan.scenario.empty()) return plan;
  auto spec = scenario::parse(plan.scenario);
  // An attack needs an adversary-controlled channel; when the scenario names
  // none, the registry-ε obs_perturb default becomes explicit so the cell's
  // identity string says exactly what ran.
  if (!spec.trivial() && plan.attack != AttackKind::None &&
      !spec.attackable())
    spec = scenario::with_default_threat(std::move(spec));
  plan.env_name = spec.env;
  plan.scenario = spec.trivial() ? std::string() : spec.canonical();
  return plan;
}

std::string ExperimentRunner::cache_key(const AttackPlan& plan,
                                        long long steps, int episodes) const {
  const std::string& identity =
      plan.scenario.empty() ? plan.env_name : plan.scenario;
  std::ostringstream os;
  os << identity << '|' << plan.defense << '|' << to_string(plan.attack)
     << '|' << (plan.bias_reduction ? 1 : 0) << '|' << plan.eta << '|'
     << plan.xi << '|' << plan.tau0 << '|' << steps << '|' << episodes << '|'
     << cfg_.seed << '|' << cfg_.scale << "|v" << kFormatVersion;
  // FNV-1a over the readable key keeps filenames short and portable.
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : os.str()) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  std::ostringstream name;
  name << plan.env_name << '_' << to_string(plan.attack)
       << (plan.bias_reduction ? "_BR" : "") << '_' << std::hex << h;
  std::string key = name.str();
  for (auto& c : key)
    if (c == ' ' || c == '/') c = '-';
  return key;
}

std::string ExperimentRunner::results_path(const std::string& key) const {
  return cfg_.zoo_dir + "/results/" + key + ".res";
}

bool ExperimentRunner::load_cached(const std::string& key,
                                   AttackOutcome& out) const {
  const auto path = results_path(key);
  // One stat decides the shape of the lookup: a missing file is a miss (and
  // invalidates any stale memo entry); an unchanged signature replays the
  // already-verified parse; only a new or rewritten file pays the full
  // archive read + CRC pass.
  const auto sig = proc::file_sig(path);
  std::lock_guard<std::mutex> lk(result_memo_m_);
  if (!sig) {
    result_memo_.erase(key);
    return false;
  }
  const auto it = result_memo_.find(key);
  if (it != result_memo_.end() && it->second.sig == *sig) {
    out.victim_eval = it->second.victim_eval;
    out.curve = it->second.curve;
    return true;
  }
  BinaryReader r;
  if (!BinaryReader::load(path, r)) return false;
  read_results(r, out);
  result_memo_[key] = CachedResult{*sig, out.victim_eval, out.curve};
  return true;
}

void ExperimentRunner::store_cached(const std::string& key,
                                    const AttackOutcome& out) const {
  std::filesystem::create_directories(cfg_.zoo_dir + "/results");
  BinaryWriter w;
  write_results(w, out);
  const auto path = results_path(key);
  w.save(path);
  // Pre-warm the memo: the process that computed a cell answers later
  // lookups of it (repeat grids, serving-daemon job polls) from memory.
  if (const auto sig = proc::file_sig(path)) {
    std::lock_guard<std::mutex> lk(result_memo_m_);
    result_memo_[key] = CachedResult{*sig, out.victim_eval, out.curve};
  }
}

AttackOutcome ExperimentRunner::run(const AttackPlan& raw_plan) {
  const AttackPlan plan = normalize_plan(raw_plan);
  const long long steps = plan.attack_steps
                              ? plan.attack_steps
                              : default_attack_steps(plan.env_name);
  const int episodes = plan.eval_episodes
                           ? plan.eval_episodes
                           : default_eval_episodes(plan.env_name);
  const auto key = cache_key(plan, steps, episodes);
  AttackOutcome cached;
  cached.plan = plan;
  if (load_cached(key, cached)) return cached;

  // Per-cell lock: two runs racing on the same plan serialize,
  // and the second finds the first's cached result on re-check. Held for
  // the whole run — a crashed holder's lock is stolen (see proc::FileLock)
  // and the replacement resumes from the crashed run's snapshot. Locks live
  // in their own directory: results/ existing means a result was cached.
  std::filesystem::create_directories(cfg_.zoo_dir + "/locks");
  proc::FileLock lock(cfg_.zoo_dir + "/locks/" + key + ".lock");
  if (load_cached(key, cached)) return cached;

  AttackOutcome out =
      !plan.scenario.empty() ? run_scenario(plan, key)
      : env::spec(plan.env_name).type == env::TaskType::MultiAgent
          ? run_multi_agent(plan, key)
          : run_single_agent(plan, key);
  // A halted run left a snapshot, not a result — resume before caching.
  if (out.completed) store_cached(key, out);
  return out;
}

}  // namespace imap::core
