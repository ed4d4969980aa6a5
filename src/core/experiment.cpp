#include "core/experiment.h"

#include <algorithm>
#include <filesystem>
#include <sstream>

#include "common/serialize.h"

#include "attack/ppo_attacker.h"
#include "attack/random_attack.h"
#include "common/check.h"
#include "common/proc.h"
#include "core/resumable.h"
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

bool attack_supported(const std::string& env_name, AttackKind kind) {
  const bool game = env::spec(env_name).type == env::TaskType::MultiAgent;
  return is_imap(kind) || game == (kind == AttackKind::ApMarl);
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

ImapOptions ExperimentRunner::imap_options(const AttackPlan& plan) const {
  ImapOptions opts;
  opts.reg.type = regularizer_of(plan.attack);
  opts.reg.xi = plan.xi;
  opts.bias_reduction = plan.bias_reduction;
  opts.eta = plan.eta;
  opts.tau0 = plan.tau0;
  opts.ppo = attack_ppo_options();
  const auto type = env::spec(plan.env_name).type;
  // Dense tasks: per-step surrogate indicators sum to O(max_steps) per
  // episode; normalise so BR's η has a task-independent meaning.
  if (type == env::TaskType::DenseLocomotion)
    opts.surrogate_scale = env::make_env(plan.env_name)->max_steps();
  if (type == env::TaskType::MultiAgent)
    opts = with_game_marginals(std::move(opts),
                               *env::make_multiagent_env(plan.env_name));
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

/// An attacker (PpoAttacker / ImapTrainer) as a resumable session: one unit
/// is one PPO iteration and appends one learning-curve point. The curve so
/// far rides in the snapshot's "runner/curve" section.
template <typename Attacker>
struct AttackSession {
  Attacker& attacker;
  long long steps;
  std::vector<CurvePoint>& curve;

  bool done() const { return attacker.trainer().steps_done() >= steps; }
  void advance() {
    const auto s = attacker.iterate();
    curve.push_back({s.total_steps, s.mean_surrogate, s.tau});
  }
  void save_state(ArchiveWriter& a) const {
    attacker.save_state(a);
    write_curve(a.section("runner/curve"), curve);
  }
  void load_state(const ArchiveReader& a) {
    attacker.load_state(a);
    auto r = a.section("runner/curve");
    curve = read_curve(r);
  }
};

/// The two views of one cell: the adversary's training env and the
/// VictimTrue env the attack is evaluated on. A game is an OpponentEnv; a
/// single-agent cell is a ScenarioEnv, and a classic cell (empty scenario)
/// is its env under the registry-ε obs_perturb channel, whatever the attack.
struct CellEnvs {
  std::unique_ptr<rl::Env> attack;
  std::unique_ptr<rl::Env> eval;
};

CellEnvs make_cell_envs(const AttackPlan& plan,
                        const rl::PolicyHandle& victim) {
  if (env::spec(plan.env_name).type == env::TaskType::MultiAgent) {
    const auto game = env::make_multiagent_env(plan.env_name);
    return {std::make_unique<attack::OpponentEnv>(*game, victim),
            std::make_unique<attack::OpponentEnv>(*game, victim)};
  }
  const auto spec =
      plan.scenario.empty()
          ? scenario::with_default_threat(scenario::parse(plan.env_name))
          : scenario::parse(plan.scenario);
  const auto inner = env::make_env(spec.env);
  return {std::make_unique<scenario::ScenarioEnv>(
              *inner, spec, victim, scenario::RewardMode::Adversary),
          std::make_unique<scenario::ScenarioEnv>(
              *inner, spec, victim, scenario::RewardMode::VictimTrue)};
}

}  // namespace

AttackOutcome ExperimentRunner::run_cell(const AttackPlan& plan,
                                         const std::string& key,
                                         long long steps, int episodes) {
  // Network-backed handle: vectorized attack rollouts can batch the victim.
  const auto victim =
      Zoo::as_policy(*zoo_.victim_shared(plan.env_name, plan.defense));
  const CellEnvs envs = make_cell_envs(plan, victim);

  Rng rng = plan_rng(plan);
  Rng eval_rng = rng.split(0xe7a1ULL);
  const ResumeCfg rc{snapshot_path(key), cfg_.snapshot_every,
                     cfg_.halt_after_iters};
  AttackOutcome out;
  out.plan = plan;
  rl::PolicyHandle adversary;
  switch (plan.attack) {
    case AttackKind::None:
      adversary = attack::make_null_attack(envs.eval->act_dim());
      break;
    case AttackKind::Random:
      adversary =
          attack::make_random_attack(envs.eval->act_dim(), rng.split(3));
      break;
    case AttackKind::SaRl:
    case AttackKind::ApMarl: {
      attack::PpoAttacker attacker(*envs.attack, attack_ppo_options(), rng);
      AttackSession session{attacker, steps, out.curve};
      out.completed = run_resumable(session, rc);
      adversary = attacker.adversary();
      break;
    }
    default: {
      ImapTrainer attacker(*envs.attack, imap_options(plan), rng);
      AttackSession session{attacker, steps, out.curve};
      out.completed = run_resumable(session, rc);
      adversary = attacker.adversary();
      break;
    }
  }
  // A halted run is evaluated when it resumes and completes.
  if (out.completed)
    out.victim_eval = rl::evaluate(*envs.eval, adversary, episodes, eval_rng);
  return out;
}

AttackPlan ExperimentRunner::normalize_plan(AttackPlan plan) const {
  if (!plan.scenario.empty()) {
    auto spec = scenario::parse(plan.scenario);
    // An attack needs an adversary-controlled channel; when the scenario
    // names none, the registry-ε obs_perturb default becomes explicit so the
    // cell's identity string says exactly what ran.
    if (!spec.trivial() && plan.attack != AttackKind::None &&
        !spec.attackable())
      spec = scenario::with_default_threat(std::move(spec));
    plan.env_name = spec.env;
    plan.scenario = spec.trivial() ? std::string() : spec.canonical();
  }
  IMAP_CHECK_MSG(attack_supported(plan.env_name, plan.attack),
                 to_string(plan.attack) << " does not run on "
                                        << plan.env_name);
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

  AttackOutcome out = run_cell(plan, key, steps, episodes);
  // A halted run left a snapshot, not a result — resume before caching.
  if (out.completed) store_cached(key, out);
  return out;
}

}  // namespace imap::core
