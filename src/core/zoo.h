#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/config.h"
#include "common/proc.h"
#include "nn/gaussian.h"
#include "rl/evaluate.h"
#include "rl/policy_handle.h"

namespace imap::core {

/// Victim model zoo: trains every (task × defense) victim on demand —
/// deterministically from the experiment seed — and caches the resulting
/// policy checkpoints on disk so all benches share them. This stands in for
/// the paper's released pre-trained victim agents.
class Zoo {
 public:
  /// `snapshot_every` > 0 writes a resumable mid-training snapshot
  /// (`<checkpoint>.snap`) every N advance units while a victim trains; an
  /// interrupted run picks up from it on the next request and the snapshot
  /// is removed once the finished checkpoint lands.
  Zoo(std::string dir, double scale, std::uint64_t seed,
      int snapshot_every = 0);

  /// Victim for `env_name`. A single-agent task's victim is trained with
  /// `defense` ("PPO", "ATLA", "SA", "ATLA-SA", "RADIAL", "WocaR"); sparse
  /// tasks train on their dense counterparts (see env::make_training_env).
  /// A competitive game's victim (runner / kicker) is trained by PPO against
  /// the scripted opponent pool, whatever `defense` says. Any scenario
  /// string is accepted and resolves to its BASE env's victim — the
  /// checkpoint is a property of the task, not the threat model, so every
  /// scenario over one env shares one artifact and plain env names keep
  /// their pre-scenario keys.
  nn::GaussianPolicy victim(const std::string& env_name,
                            const std::string& defense = "PPO");

  /// Shared-ownership variants backed by the in-memory memo: a warm lookup
  /// (checkpoint already verified, file unchanged on disk) costs one stat()
  /// and a shared_ptr copy — no archive re-read, no CRC re-check, no weight
  /// copy. This is the lookup the serving daemon's model cache rides.
  std::shared_ptr<const nn::GaussianPolicy> victim_shared(
      const std::string& env_name, const std::string& defense = "PPO");
  /// victim_shared(game_name, "PPO").
  std::shared_ptr<const nn::GaussianPolicy> game_victim_shared(
      const std::string& game_name);

  /// On-disk checkpoint path a (deploy env × defense) victim is cached
  /// under. Public so the serving layer can fingerprint (stat + CRC) the
  /// artifact it is holding in memory; sparse tasks map to their dense
  /// training counterpart's path, games to their PPO checkpoint.
  std::string checkpoint_path(const std::string& env_name,
                              const std::string& defense) const;

  /// Archive parses performed so far (cold loads + post-training loads).
  /// Warm memoized lookups do not advance it — pinned by tests.
  std::uint64_t full_loads() const;

  /// Wrap an experiment victim as a frozen handle the vectorized rollout
  /// engine can batch (one victim forward per lockstep tick). Serves fp64,
  /// or int8 when IMAP_VICTIM_QUANT=1 — read here, the one place that knob
  /// applies.
  static rl::PolicyHandle as_policy(const nn::GaussianPolicy& policy);

  /// Training budget (environment steps) for a task, after scaling.
  long long victim_steps(const std::string& env_name) const;

  const std::string& dir() const { return dir_; }
  double scale() const { return scale_; }

 private:
  /// Checkpoint path; carries the archive format version so a zoo directory
  /// written by an older format is retrained, never misread.
  std::string path_for(const std::string& env_name,
                       const std::string& defense) const;

  /// One memoized, CRC-verified parse per distinct on-disk state of a
  /// checkpoint. The stat signature taken at verification time guards the
  /// entry: a lookup whose fresh stat matches returns the cached network
  /// without touching the file contents; a mismatch (artifact rewritten by
  /// a retrain or another process) re-reads and re-verifies. Returns
  /// nullptr when the file does not exist.
  std::shared_ptr<const nn::GaussianPolicy> load_memoized(
      const std::string& path);
  /// Install a just-trained policy under `path`'s current signature so the
  /// next lookup is warm.
  std::shared_ptr<const nn::GaussianPolicy> remember(
      const std::string& path, nn::GaussianPolicy policy);

  struct Memo {
    proc::FileSig sig;
    std::shared_ptr<const nn::GaussianPolicy> policy;
  };

  std::string dir_;
  double scale_;
  std::uint64_t seed_;
  int snapshot_every_;
  mutable std::mutex memo_m_;  ///< victim() is called from serving threads
  std::unordered_map<std::string, Memo> memo_;
  std::uint64_t full_loads_ = 0;
};

}  // namespace imap::core
