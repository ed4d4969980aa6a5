#pragma once

#include <cstdint>
#include <string>

namespace imap {

/// Runtime knobs shared by the bench harnesses, read once from the
/// environment. A malformed or out-of-range value makes from_env() throw
/// std::invalid_argument naming the knob; it never falls back silently.
///   IMAP_BENCH_SCALE — multiplies all training-step and eval-episode budgets
///                      (default 1.0; a finite number > 0; use e.g. 0.1 for a
///                      smoke run).
///   IMAP_ZOO_DIR     — directory for cached victim checkpoints
///                      (default "./zoo").
///   IMAP_SEED        — base experiment seed (default 7).
///   IMAP_SNAPSHOT_EVERY — write a resumable training snapshot every N
///                      iterations/rounds (0 = off). Interrupted victim
///                      training and attack runs pick up from the snapshot.
///   IMAP_HALT_AFTER_ITERS — stop attack training after N iterations this
///                      process (0 = off), leaving a snapshot behind. A
///                      debugging/testing knob; never part of cache keys.
struct BenchConfig {
  double scale = 1.0;
  std::string zoo_dir = "./zoo";
  std::uint64_t seed = 7;
  int snapshot_every = 0;
  long long halt_after_iters = 0;

  /// Scale a step/episode budget, clamped to at least `min_value`.
  int scaled(int base, int min_value = 1) const;

  static BenchConfig from_env();
};

/// Read a string env var with default.
std::string env_string(const char* name, const std::string& fallback);

/// Strict integer parse for a configuration knob: all of `text` must be a
/// base-10 integer (optional leading '-') within [lo, hi]. Anything else —
/// empty, trailing junk, overflow, out of range — throws
/// std::invalid_argument whose message names `knob`, the bad text and the
/// accepted range.
long long parse_int(const std::string& knob, const std::string& text,
                    long long lo, long long hi);

/// Integer env knob: `fallback` when unset or empty, else parse_int(name,
/// value, lo, hi).
long long env_int(const char* name, long long fallback, long long lo,
                  long long hi);

}  // namespace imap
