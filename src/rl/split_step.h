#pragma once

#include <cstddef>
#include <vector>

#include "rl/env.h"
#include "rl/policy_handle.h"

namespace imap::rl {

/// Mixin interface for wrapper environments whose step() is exactly one
/// frozen-policy query sandwiched between pre- and post-transition code —
/// the shape of both threat models (scenario::ScenarioEnv queries the victim
/// on the channel-corrupted observation, attack::OpponentEnv on the
/// victim-side state).
///
/// Splitting the step lets the vectorized rollout engine run phase 1 for all
/// lockstep slots, answer every query with ONE batched victim forward, and
/// then run phase 2 per slot. The contract is that for any action a,
///
///   step(a)  ==  finish_step(frozen_policy().query(begin_step(a)))
///
/// bitwise, so the engine may substitute the batched victim path freely.
/// Implementations are detected by dynamic_cast from Env*.
class SplitStepEnv {
 public:
  virtual ~SplitStepEnv() = default;

  /// Phase 1: absorb the agent's action and return the observation the
  /// frozen policy must answer. The reference stays valid (and the wrapper
  /// stays mid-step) until the matching finish_step call.
  virtual const std::vector<double>& begin_step(
      const std::vector<double>& action) = 0;

  /// Phase 2: complete the transition from the RAW frozen-policy output for
  /// the query returned by begin_step. The wrapper applies its own clamping
  /// here, exactly as its step() does.
  virtual StepResult finish_step(const std::vector<double>& policy_out) = 0;

  /// Width of the begin_step query (= the frozen policy's input dim).
  virtual std::size_t query_dim() const = 0;

  /// The frozen policy consulted each step; batchable iff it exposes a
  /// network (PolicyHandle::batched()).
  virtual const PolicyHandle& frozen_policy() const = 0;
};

}  // namespace imap::rl
