#pragma once

#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/config.h"
#include "common/proc.h"
#include "core/imap_trainer.h"
#include "core/zoo.h"
#include "rl/evaluate.h"

namespace imap {
class BinaryReader;
class BinaryWriter;
}  // namespace imap

namespace imap::core {

/// The attack columns of Tables 1–3.
enum class AttackKind {
  None,
  Random,
  SaRl,    ///< single-agent baseline (Zhang et al.)
  ApMarl,  ///< multi-agent baseline (Gleave et al.)
  ImapSC,
  ImapPC,
  ImapR,
  ImapD,
};

std::string to_string(AttackKind kind);
bool is_imap(AttackKind kind);
RegularizerType regularizer_of(AttackKind kind);

/// IMAP attack variants in Table 1/2 column order.
std::vector<AttackKind> imap_attacks();

struct AttackPlan {
  std::string env_name;        ///< task (single- or multi-agent)
  /// Optional scenario string (scenario::parse grammar). Empty = the classic
  /// threat model on env_name. Non-empty and non-trivial = the attack runs
  /// through the scenario layer's channel pipeline, and the CANONICAL
  /// scenario string replaces env_name as the cell's identity in cache keys
  /// and rng streams. A trivial scenario ("hopper") normalizes back to the
  /// empty-scenario plan, so paper-grid baselines keep their existing keys.
  std::string scenario;
  std::string defense = "PPO"; ///< victim training method (single-agent)
  AttackKind attack = AttackKind::ImapPC;
  bool bias_reduction = false;
  double eta = 5.0;   ///< BR dual step size (Fig. 6 sweeps this; larger = better per the paper)
  double xi = 0.5;    ///< multi-agent marginal mixing (Fig. 7 sweeps this)
  double tau0 = 1.0;
  long long attack_steps = 0;  ///< 0 ⇒ runner default for the task type
  int eval_episodes = 0;       ///< 0 ⇒ runner default
};

/// One point of a learning curve (Figs. 4–7): adversary training steps vs
/// the victim's training-time surrogate performance.
struct CurvePoint {
  long long steps = 0;
  double victim_success = 0.0;  ///< mean per-episode surrogate (victim PoV)
  double tau = 0.0;
};

struct AttackOutcome {
  AttackPlan plan;
  rl::EvalStats victim_eval;  ///< victim TRUE rewards / success under attack
  std::vector<CurvePoint> curve;
  /// False when BenchConfig::halt_after_iters stopped attack training early;
  /// the run left a resumable snapshot and victim_eval is unset. Halted
  /// outcomes are never cached.
  bool completed = true;

  /// Multi-agent attacking success rate (ASR = 1 − victim win rate).
  double asr() const { return 1.0 - victim_eval.success_rate; }
};

/// The one encoding of an outcome's results: eval stats, then the learning
/// curve. It is the payload of a result-cache file and of a DAG worker's
/// reply, so its byte layout IS the cache format — changing it orphans every
/// results/*.res on disk. `plan` and `completed` are not part of it.
void write_results(BinaryWriter& w, const AttackOutcome& out);
void read_results(BinaryReader& r, AttackOutcome& out);

/// Bitwise outcome equality: the same `completed` flag and byte-identical
/// write_results encodings, so a one-ulp drift or a reordering of episode
/// returns anywhere counts as a difference.
bool identical_results(const AttackOutcome& a, const AttackOutcome& b);

/// Shared harness behind all bench binaries: owns the zoo, derives budgets
/// from BenchConfig, trains the requested attack and evaluates it against
/// the deployed victim.
class ExperimentRunner {
 public:
  explicit ExperimentRunner(BenchConfig cfg);

  AttackOutcome run(const AttackPlan& plan);

  Zoo& zoo() { return zoo_; }
  const BenchConfig& config() const { return cfg_; }

  long long default_attack_steps(const std::string& env_name) const;
  int default_eval_episodes(const std::string& env_name) const;

  /// PPO options shared by all attacks (baselines and IMAP).
  rl::PpoOptions attack_ppo_options() const;

  /// Attack outcomes are cached under <zoo_dir>/results keyed by the full
  /// plan + budgets + seed + archive format version, so the bench binaries
  /// share runs (Table 3 reuses Table 2's grid, Fig. 4 reuses the
  /// sparse-task curves) and interrupted sweeps resume where they stopped.
  /// halt_after_iters and snapshot_every never enter the key — they change
  /// when a run pauses, not what it computes.
  std::string cache_key(const AttackPlan& plan, long long steps,
                        int episodes) const;

  /// Canonicalize a plan's scenario field: parse + validate, resolve
  /// env_name from the spec, collapse trivial scenarios onto the classic
  /// empty-scenario plan, and make the implicit default threat explicit
  /// (obs_perturb at the registry ε) when an attack needs a controlled
  /// channel the scenario doesn't name. run() and the DAG builder apply
  /// this before any key is derived, so equal scenarios share one cell
  /// however they were spelled.
  AttackPlan normalize_plan(AttackPlan plan) const;

 private:
  AttackOutcome run_single_agent(const AttackPlan& plan,
                                 const std::string& key);
  AttackOutcome run_multi_agent(const AttackPlan& plan,
                                const std::string& key);
  /// Non-trivial scenario plans: channel-pipeline attack env + evaluation.
  AttackOutcome run_scenario(const AttackPlan& plan, const std::string& key);
  /// Mid-training snapshot file for one cached run (under
  /// <zoo_dir>/snapshots; the directory is created on first write).
  std::string snapshot_path(const std::string& key) const;
  ImapOptions imap_options(const AttackPlan& plan,
                           const std::string& env_name) const;
  Rng plan_rng(const AttackPlan& plan) const;
  /// Result-cache read with a stat-signature memo in front: a result file
  /// already parsed by this process is reused as long as its on-disk
  /// signature is unchanged, so the post-lock re-check in run() (and every
  /// warm repeat lookup, e.g. Table 3 revisiting Table 2's grid or the
  /// serving daemon polling a finished attack job) costs one stat instead
  /// of a full archive read + CRC pass.
  bool load_cached(const std::string& key, AttackOutcome& out) const;
  void store_cached(const std::string& key, const AttackOutcome& out) const;
  std::string results_path(const std::string& key) const;

  struct CachedResult {
    proc::FileSig sig;
    rl::EvalStats victim_eval;
    std::vector<CurvePoint> curve;
  };

  BenchConfig cfg_;
  Zoo zoo_;
  mutable std::mutex result_memo_m_;
  mutable std::unordered_map<std::string, CachedResult> result_memo_;
};

}  // namespace imap::core
