#pragma once

#include <memory>
#include <vector>

#include "common/serialize.h"
#include "nn/batch.h"
#include "nn/gaussian.h"
#include "rl/env.h"
#include "rl/replay.h"
#include "rl/rollout.h"
#include "rl/split_step.h"

namespace imap::rl {

/// One environment slot of a VecEnv: its own env clone, Rng stream, episode
/// state and rollout buffer. Slots are fully independent — a slot's trace is
/// a pure function of its env prototype, its stream and the (frozen) policy
/// parameters, never of E or of its neighbours.
struct EnvSlot {
  std::unique_ptr<Env> env;
  SplitStepEnv* split = nullptr;  ///< cached cast; null if not splittable
  Rng rng{0};
  std::vector<double> cur_obs;
  double ep_return = 0.0;
  double ep_surrogate = 0.0;
  int ep_len = 0;
  bool need_reset = true;
  int ep_successes = 0;
  RolloutBuffer buf;
  EpisodeReplay replay;  ///< in-flight episode history for snapshot/resume
  /// Intrinsic bootstraps owed by this round (see VecEnv::collect): their
  /// slots in buf.last_val_i and their observations, row after row.
  std::vector<std::size_t> boot_i_at;
  std::vector<double> boot_i_obs;
};

/// Vectorized rollout engine: E environment slots stepped in lockstep so one
/// collection tick performs ONE batched policy-mean forward, ONE batched
/// critic forward and — when every slot is a SplitStepEnv over the same
/// network-backed frozen victim — ONE batched victim forward, instead of E
/// per-sample calls of each.
///
/// Determinism contract: slot i draws only from its own stream and
/// auto-resets in place, and every batched forward is bit-identical per row
/// to a one-row batch, so collect() fills exactly the buffers that E
/// independent one-slot VecEnvs would — for any E and any IMAP_THREADS.
/// Budgets must be non-increasing across the slot range so the live slots
/// always form a prefix (shorter budgets retire from the back).
///
/// One VecEnv is in flight per worker thread; the policy/critics stay
/// read-only and all mutable scratch (workspaces, stacking batches) is owned
/// by the VecEnv itself.
class VecEnv {
 public:
  /// (Re)build one slot per entry of `streams`, each a clone of `proto`
  /// seeded with its stream.
  void configure(const Env& proto, const std::vector<Rng>& streams);

  /// Swap every slot's environment for a clone of `proto` (same spaces);
  /// episode state restarts on the next collect.
  void set_env(const Env& proto);

  std::size_t size() const { return slots_.size(); }
  EnvSlot& slot(std::size_t i) { return slots_[i]; }
  const EnvSlot& slot(std::size_t i) const { return slots_[i]; }

  /// Lockstep vectorized collection. Slot i runs budgets[offset+i] steps
  /// into its own buffer (bit-identical to a one-slot VecEnv on the same
  /// state). Episode state persists across calls. The intrinsic critic is
  /// not read: the round records the observations of its truncated and
  /// round-closing steps, and bootstrap_intrinsic() fills their
  /// buf.last_val_i entries (0 until then), so PpoTrainer can keep
  /// training that critic while the rollout runs.
  void collect(const nn::GaussianPolicy& policy, const nn::ValueNet& value_e,
               const std::vector<int>& budgets, std::size_t offset);

  /// Fill the intrinsic bootstraps the last collect() owes, in one batched
  /// forward of `value_i` (each value bit-identical to a one-row batch).
  void bootstrap_intrinsic(const nn::ValueNet& value_i);

  /// Serialize every slot's persistent state (stream, episode scalars,
  /// in-flight episode history). load_state rebuilds each slot's env by
  /// replaying its episode into the current clone and checks the replayed
  /// observation against the snapshotted one bit for bit.
  void save_state(BinaryWriter& w) const;
  void load_state(BinaryReader& r);

 private:
  void refresh_split_cache();
  void begin_round(EnvSlot& s, int budget);
  void record_step(EnvSlot& s, const double* act, std::size_t na, double lp,
                   double ve, StepResult&& sr, const nn::ValueNet& value_e);
  void close_round(EnvSlot& s, const nn::ValueNet& value_e);
  /// Append a last_val_i entry for the state `obs` that
  /// bootstrap_intrinsic() fills.
  static void owe_intrinsic(EnvSlot& s, const std::vector<double>& obs);
  /// V(obs) as a one-row batch on the critic's own workspace.
  double bootstrap(const nn::ValueNet& value, nn::Mlp::Workspace& ws,
                   const std::vector<double>& obs);

  std::vector<EnvSlot> slots_;
  /// All slots split their step around the SAME network-backed frozen
  /// policy, so their per-tick victim queries merge into one batch.
  bool victim_batchable_ = false;

  // Per-engine scratch (grows to the high-water mark once, then reused).
  // One workspace per network, so each keeps its transpose cache warm.
  nn::Mlp::Workspace ws_policy_, ws_value_e_, ws_value_i_, ws_victim_;
  nn::Batch obs_b_, act_b_, query_b_, boot_b_;
  std::vector<double> logp_, vals_, boot_v_, action_, victim_out_;
  std::vector<double> std_, inv_std_;  ///< exp(±log_std), once per collect
};

}  // namespace imap::rl
