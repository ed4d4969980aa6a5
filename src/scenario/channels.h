#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "scenario/spec.h"

namespace imap::scenario {

/// The two perturbation primitives: the arithmetic of the obs_perturb and
/// obs_noise channels. defense::PerturbedVictimEnv's noise mode runs the
/// same obs_noise loop, so the two stay bit-compatible by construction.

/// obs[i] += eps * ctrl[i] — the SA-MDP observation perturbation of the
/// obs_perturb channel (ScenarioEnv::begin_step). `ctrl` must be
/// pre-clamped to [-1, 1] and at least obs.size() wide.
void apply_obs_perturb(std::vector<double>& obs, const double* ctrl,
                       double eps);

/// obs[i] += eps * U[-1,1], one draw per element in index order — the
/// robust-defense noise channel (defense::PerturbedVictimEnv noise mode).
void apply_obs_noise(std::vector<double>& obs, double eps, Rng& rng);

/// The stacked perturbation-channel state of one scenario instance: the
/// env-side observation corruptions (delay -> dropout -> noise, in pipeline
/// order), the adversary-controlled perturbations (obs_perturb on the victim
/// query, act_perturb on the victim action), and the shared per-episode ε
/// budget they deplete.
///
/// The adversary's action vector is the concatenation of the controlled
/// channels' slices: [obs_perturb: obs_dim][act_perturb: victim_act_dim].
/// Channels without control consume no dims.
///
/// All channel state (delay ring, dropout hold, noise streams, budget pool)
/// is a pure function of the reset Rng and the action sequence, so
/// replay-based snapshot restore (rl::EpisodeReplay) reproduces it without
/// any explicit serialization — the same property the existing wrappers
/// rely on.
class ChannelPipeline {
 public:
  ChannelPipeline(const ScenarioSpec& spec, std::size_t obs_dim,
                  std::size_t victim_act_dim);

  /// Total adversary-controlled dims (0 when no controlled channel).
  std::size_t ctrl_dim() const { return ctrl_dim_; }
  bool has_obs_perturb() const { return obs_eps_ >= 0.0; }
  bool has_act_perturb() const { return act_eps_ >= 0.0; }
  bool has_budget() const { return budget_total_ > 0.0; }

  /// Start an episode: reseed the stochastic channels from `rng` (one
  /// next_u64 per stochastic channel present, in pipeline order), clear the
  /// delay/dropout state and refill the budget pool scaled by
  /// `budget_scale` (the dr[budget] factor of this episode).
  void begin_episode(Rng& rng, double budget_scale);

  /// Env-side corruptions, in place, in pipeline order. Called on the reset
  /// observation and on every step observation.
  void corrupt_obs(std::vector<double>& obs);

  /// Adversary observation perturbation from the obs_perturb slice of the
  /// (pre-clamped) control vector; consumes budget.
  void perturb_obs(std::vector<double>& obs, const std::vector<double>& ctrl);

  /// Adversary action perturbation from the act_perturb slice; consumes
  /// budget. Caller re-clamps into the victim action space afterwards.
  void perturb_act(std::vector<double>& act, const std::vector<double>& ctrl);

  /// Remaining ε budget this episode (infinity when unbudgeted).
  double budget_remaining() const { return budget_remaining_; }

 private:
  /// Effective ε for one perturbation application under the depleting
  /// budget, charging max_i |eps_eff·ctrl_i| against the pool.
  double charge(double eps, const double* ctrl, std::size_t n);

  std::size_t obs_dim_ = 0;
  std::size_t act_dim_ = 0;
  std::size_t ctrl_dim_ = 0;

  // Channel parameters; a negative ε / delay / probability means "absent".
  double obs_eps_ = -1.0;
  double act_eps_ = -1.0;
  int delay_ = 0;
  double dropout_p_ = -1.0;
  double noise_eps_ = -1.0;
  double budget_total_ = 0.0;

  double budget_remaining_ = 0.0;
  Rng dropout_rng_{0};
  Rng noise_rng_{0};
  std::vector<std::vector<double>> delay_ring_;  ///< last `delay_`+1 raw obs
  std::size_t ring_head_ = 0;   ///< next write slot
  std::size_t ring_count_ = 0;  ///< observations banked since reset
  std::vector<double> hold_;    ///< dropout: last delivered observation
  bool episode_open_ = false;
};

}  // namespace imap::scenario
