#pragma once

#include <vector>

#include "common/stats.h"
#include "rl/env.h"
#include "rl/policy_handle.h"

namespace imap::rl {

struct EvalStats {
  ReturnSummary returns;        ///< true episode rewards J_E^ν (mean ± std)
  double success_rate = 0.0;    ///< fraction of episodes completing the task
  double mean_length = 0.0;
  std::vector<double> episode_returns;
};

/// Roll `episodes` episodes of `proto` under the frozen policy `act` (the
/// paper's threat model holds the deployed network fixed; we evaluate its
/// mean action) and summarise.
EvalStats evaluate(const Env& proto, const PolicyHandle& act, int episodes,
                   Rng& rng);

/// Dump one trajectory (state rows) for qualitative inspection (Fig. 1/2
/// style renderings become CSVs here).
std::vector<std::vector<double>> rollout_trajectory(const Env& proto,
                                                    const PolicyHandle& act,
                                                    Rng& rng);

}  // namespace imap::rl
