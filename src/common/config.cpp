#include "common/config.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>

namespace imap {

std::string env_string(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  return (v && *v) ? std::string(v) : fallback;
}

long long parse_int(const std::string& knob, const std::string& text,
                    long long lo, long long hi) {
  long long v = 0;
  const char* first = text.data();
  const char* last = first + text.size();
  const auto [end, ec] = std::from_chars(first, last, v);
  if (first == last || ec != std::errc() || end != last || v < lo || v > hi)
    throw std::invalid_argument(knob + ": '" + text +
                                "' is not an integer in [" +
                                std::to_string(lo) + ", " +
                                std::to_string(hi) + "]");
  return v;
}

long long env_int(const char* name, long long fallback, long long lo,
                  long long hi) {
  const char* v = std::getenv(name);
  if (!v || !*v) return fallback;
  return parse_int(name, v, lo, hi);
}

int BenchConfig::scaled(int base, int min_value) const {
  // Clamped before the cast: a huge scale must not overflow int.
  const double s = std::min(static_cast<double>(base) * scale,
                            double{std::numeric_limits<int>::max()});
  return std::max(min_value, static_cast<int>(s));
}

namespace {

/// Budget-multiplier env knob: `fallback` when unset or empty, else all of
/// the value must be a finite number > 0, or std::invalid_argument names
/// the knob.
double env_scale(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (!v || !*v) return fallback;
  const std::string text(v);
  double s = 0.0;
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, s);
  if (ec != std::errc() || end != last || !std::isfinite(s) || s <= 0.0)
    throw std::invalid_argument(std::string(name) + ": '" + text +
                                "' is not a finite number > 0");
  return s;
}

}  // namespace

BenchConfig BenchConfig::from_env() {
  constexpr long long kMax = std::numeric_limits<long long>::max();
  BenchConfig cfg;
  cfg.scale = env_scale("IMAP_BENCH_SCALE", 1.0);
  cfg.zoo_dir = env_string("IMAP_ZOO_DIR", "./zoo");
  cfg.seed = static_cast<std::uint64_t>(env_int("IMAP_SEED", 7, 0, kMax));
  cfg.snapshot_every = static_cast<int>(env_int(
      "IMAP_SNAPSHOT_EVERY", 0, 0, std::numeric_limits<int>::max()));
  cfg.halt_after_iters = env_int("IMAP_HALT_AFTER_ITERS", 0, 0, kMax);
  return cfg;
}

}  // namespace imap
