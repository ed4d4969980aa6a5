#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace imap::scenario {

/// Perturbation channels of the composable threat-model pipeline, in the
/// FIXED pipeline order (see DESIGN.md "Scenario layer"): the enum order is
/// both the canonical-string order and the order channel effects compose in
/// (environment-side corruptions first, adversary-controlled perturbations
/// at the victim-query boundary). A scenario holds at most one channel of
/// each kind, so a channel *set* has exactly one canonical string and one
/// semantics.
enum class ChannelKind {
  ObsPerturb,  ///< adversary obs perturbation s + ε·a (the SA-MDP channel)
  ActPerturb,  ///< adversary action perturbation u + ε·a on the victim act
  ObsDelay,    ///< victim observes s_{t-k} (param = integer k ≥ 1)
  ObsDropout,  ///< each obs element held at its previous value w.p. p
  ObsNoise,    ///< obs + ε·U[-1,1]^d env noise (the robust-defense channel)
  Budget,      ///< per-episode ℓ∞ perturbation budget that depletes
};

const char* to_string(ChannelKind kind);

struct ChannelSpec {
  ChannelKind kind = ChannelKind::ObsPerturb;
  double param = 0.0;
};

/// One domain-randomization range `key:lo..hi`; keys are "budget", "gain",
/// "mass" (canonical order: sorted by key). The factor for each reset is
/// drawn uniformly from [lo, hi].
struct DrRange {
  std::string key;
  double lo = 1.0;
  double hi = 1.0;
};

/// A parsed scenario: environment + perturbation channels + procedural
/// domain-randomization ranges + family seed. The grammar (DESIGN.md):
///
///   scenario := env ('+' channel)* ('+' dr)? ('@' seed)?
///   channel  := name (':' number)?        e.g. obs_perturb:0.1, obs_delay:2
///   dr       := 'dr[' key ':' lo '..' hi (',' key ':' lo '..' hi)* ']'
///
/// `canonical()` renders the one normalized string for the scenario —
/// registry capitalization, channels in ChannelKind order with defaults
/// resolved, dr keys sorted, shortest-round-trip numbers — and that string
/// is the scenario's identity everywhere (zoo/experiment cache keys, DAG
/// nodes, the serving API). A trivial scenario (no channels, no dr, no
/// seed) canonicalizes to exactly the registry env name, so the paper-grid
/// baselines keep their existing cache keys.
struct ScenarioSpec {
  std::string env;                    ///< canonical registry name
  std::vector<ChannelSpec> channels;  ///< sorted by kind; at most one each
  std::vector<DrRange> dr;            ///< sorted by key
  std::uint64_t seed = 0;             ///< DR family seed (when has_seed)
  bool has_seed = false;

  bool trivial() const { return channels.empty() && dr.empty() && !has_seed; }
  const ChannelSpec* channel(ChannelKind kind) const;
  /// Any adversary-controlled channel (obs_perturb / act_perturb)?
  bool attackable() const;
  /// Observation-perturbation ε; falls back to the registry budget
  /// (env::spec(env).epsilon) when no obs_perturb channel is present.
  double epsilon() const;
  /// Per-episode perturbation budget (0 = unbounded / no budget channel).
  double budget() const;

  std::string canonical() const;
};

/// Parse a scenario string (case-insensitive env resolution against the
/// registry, defaults resolved, everything validated). Throws CheckError
/// with a pointed message on malformed input. parse(canonical(parse(s)))
/// is the identity on specs for every valid s.
ScenarioSpec parse(const std::string& text);

/// parse(text).canonical().
std::string canonical(const std::string& text);

/// Canonical string when `text` parses, std::nullopt otherwise. The serve
/// model cache uses this so injected synthetic model names bypass the
/// grammar instead of faulting the lookup.
std::optional<std::string> try_canonical(const std::string& text);

/// Ensure the spec names an adversary-controlled channel: appends
/// obs_perturb at the registry ε when none is present. The experiment
/// runner applies this to non-trivial scenarios before training an attack,
/// so the implicit default becomes explicit in the cell's identity string.
ScenarioSpec with_default_threat(ScenarioSpec spec);

/// The paper's single-agent threat model (Sec. 4.3) as a spec: `env` with
/// one obs_perturb:eps channel. `env` only names the env, so this also
/// describes a ScenarioEnv over a given inner env that is not in the
/// registry. Throws CheckError when eps < 0.
ScenarioSpec state_perturbation(std::string env, double eps);

/// Expand a scenario pattern into concrete scenarios:
///   * the env component may be '*' (every single-agent task) or a
///     comma-separated alternation ("hopper,walker2d");
///   * the seed may be a range `@lo..hi` (inclusive).
/// Plain scenarios expand to themselves. Order: envs in registry order /
/// as listed, then seeds ascending.
std::vector<ScenarioSpec> expand(const std::string& pattern);

/// Shortest round-trip decimal rendering (the canonical number format).
std::string format_number(double v);

}  // namespace imap::scenario
