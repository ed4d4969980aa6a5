#pragma once

#include <vector>

namespace imap::rl {

/// On-policy rollout storage for PPO (one sampling stage of Algorithm 1).
///
/// Two reward channels are kept: extrinsic (the adversary's objective,
/// −r̂_E for attacks; the task reward for victim training) and intrinsic
/// (the adversarial intrinsic bonus r_I, Eq. 13; zero for plain PPO).
///
/// Storage note: `obs`/`act` retain their inner vectors (and their heap
/// blocks) across clear() and are overwritten in place by add(), so a
/// trainer that reuses one buffer allocates nothing in the hot rollout loop
/// after the first iteration. Only the first size() rows are valid — always
/// bound loops by size(), not by obs.size().
struct RolloutBuffer {
  std::vector<std::vector<double>> obs;
  std::vector<std::vector<double>> act;
  std::vector<double> logp;
  std::vector<double> rew_e;
  std::vector<double> rew_i;
  std::vector<double> val_e;
  std::vector<double> val_i;
  /// done[t] marks s_{t+1} terminal (true termination, not truncation);
  /// boundary[t] marks the end of a segment for GAE (done OR truncated).
  std::vector<unsigned char> done;
  std::vector<unsigned char> boundary;
  /// Bootstrap values for the state after each boundary (0 if done).
  std::vector<double> last_val_e;
  std::vector<double> last_val_i;
  /// Index into last_val_* for each boundary occurrence, parallel arrays.
  std::vector<std::size_t> boundary_at;

  /// Completed-episode statistics gathered during collection.
  std::vector<double> episode_returns;     ///< sum of rew_e per episode
  std::vector<double> episode_surrogate;   ///< sum of surrogate per episode
  std::vector<int> episode_lengths;

  std::size_t size() const { return n_; }

  void clear();
  void reserve(std::size_t n);

  /// Capacity hint for the per-step obs/act rows: rows created by add() are
  /// pre-reserved to these dims, cutting per-step allocations in the hot
  /// rollout loop.
  void reserve_step(std::size_t dim_obs, std::size_t dim_act);

  void add(const std::vector<double>& o, const std::vector<double>& a,
           double lp, double re, double ve);

  /// Pointer-core of add() — the vectorized collector stores actions as rows
  /// of a Batch, so this avoids materialising a per-step std::vector.
  void add(const double* o, std::size_t no, const double* a, std::size_t na,
           double lp, double re, double ve);

  /// Append another buffer's steps, bootstrap values and episode stats in
  /// order. Used to merge per-worker rollouts in worker-index order; the
  /// source must be segment-closed (its last step marked as a boundary).
  void append(const RolloutBuffer& other);

 private:
  std::size_t n_ = 0;         ///< valid steps; obs/act may hold spare rows
  std::size_t dim_obs_ = 0;   ///< reserve_step hints (0 = none)
  std::size_t dim_act_ = 0;
};

}  // namespace imap::rl
