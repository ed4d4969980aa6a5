#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/serialize.h"
#include "defense/atla.h"
#include "nn/gaussian.h"
#include "rl/env.h"
#include "rl/ppo.h"

namespace imap::defense {

/// The victim-training methods evaluated in Table 1 (Sec. 7): vanilla PPO,
/// two adversarial-training defenses (ATLA, ATLA-SA) and three
/// robust-regularizer defenses (SA, RADIAL, WocaR). `Game` is vanilla PPO
/// on a competitive game's victim side (env::VictimSideEnv); it is not a
/// Table 1 row, so all_defenses() and defense_from_string() leave it out.
enum class DefenseKind { Vanilla, ATLA, SA, ATLA_SA, RADIAL, WocaR, Game };

std::string to_string(DefenseKind kind);
DefenseKind defense_from_string(const std::string& name);

/// Row order of Table 1.
std::vector<DefenseKind> all_defenses();

struct DefenseOptions {
  double eps = 0.1;      ///< training-time perturbation budget
  double reg_coef = 1.0; ///< robust-regularizer weight
  rl::PpoOptions ppo;
  /// ATLA: number of alternation rounds and the adversary's share of steps.
  int atla_rounds = 3;
  double atla_adversary_fraction = 0.5;
};

/// Resumable victim training: the same schedule as train_victim, cut into
/// advance() units (one PPO iteration, or one ATLA alternation round) with a
/// full-state snapshot/restore between any two units. The robust-regularizer
/// defenses run in two phases — a warm-up on the plain task, then continued
/// training with the method's hook plus ε-ball observation noise — and the
/// phase counter is part of the checkpoint, so restoring into a session
/// built with identical constructor arguments resumes bit-identically.
class VictimTrainSession {
 public:
  VictimTrainSession(const rl::Env& training_env, DefenseKind kind,
                     long long steps, DefenseOptions opts, Rng rng);

  DefenseKind kind() const { return kind_; }
  bool done() const;
  /// Advance by one resumable unit; snapshots are valid at every boundary.
  void advance();

  /// The deployed policy network — the only artifact visible (as a black
  /// box) to attackers. Valid any time, final once done().
  nn::GaussianPolicy policy() const;

  void save_state(ArchiveWriter& a) const;
  void load_state(const ArchiveReader& a);

 private:
  void enter_perturbed_phase();

  std::unique_ptr<rl::Env> training_env_;
  DefenseKind kind_;
  long long steps_;
  DefenseOptions opts_;
  Rng rng_;
  std::shared_ptr<Rng> hook_rng_;  ///< regularizer-hook stream (phase 1)
  int phase_ = 0;  ///< 0 = plain-task warm-up, 1 = perturbed + hook
  std::unique_ptr<rl::PpoTrainer> trainer_;  ///< non-ATLA kinds
  std::unique_ptr<AtlaTrainer> atla_;        ///< ATLA kinds
};

/// Train one victim on its (training-time, shaped-reward) environment.
/// Returns the deployed policy network — the only artifact visible (as a
/// black box) to attackers.
nn::GaussianPolicy train_victim(const rl::Env& training_env, DefenseKind kind,
                                long long steps, DefenseOptions opts, Rng rng);

}  // namespace imap::defense
