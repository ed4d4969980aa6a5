#pragma once

// Layer probes on a workload's own inputs: each times one public function
// of one layer, in process, as a median over blocks of calls.

#include <string>

#include "serve_load.h"
#include "util.h"

namespace e2e {

/// env.step_us: one step of `env_name` (a single-agent registry env or a
/// two-player game) under uniform random actions, resets included.
double env_step_us(const std::string& env_name, bool game, std::uint64_t seed);

/// rl.victim_query_us_per_row: the fp64 frozen-victim handle training
/// rollouts query, at the rollout engine's batch width.
double victim_query_us_per_row(const imap::rl::PolicyHandle& victim,
                               std::size_t width, std::uint64_t seed);

/// The serving-path probes of one victim, rendered as JSON fields:
/// nn.quant_query_us.b1/.b32, serve.parse_us on a single-row request,
/// serve.coalescer_infer_us (a lone caller, default options) and
/// serve.model_build_ms (archive read + CRC + int8 pack).
Json& serving_probes(Json& out, const Victim& v, std::uint64_t seed);

}  // namespace e2e
