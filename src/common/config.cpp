#include "common/config.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace imap {

double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (!v || !*v) return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(v, &end);
  if (end == v) return fallback;
  return parsed;
}

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
  const double s = static_cast<double>(base) * scale;
  return std::max(min_value, static_cast<int>(s));
}

BenchConfig BenchConfig::from_env() {
  BenchConfig cfg;
  cfg.scale = env_double("IMAP_BENCH_SCALE", 1.0);
  cfg.zoo_dir = env_string("IMAP_ZOO_DIR", "./zoo");
  cfg.seed = static_cast<std::uint64_t>(env_double("IMAP_SEED", 7.0));
  cfg.snapshot_every =
      static_cast<int>(env_double("IMAP_SNAPSHOT_EVERY", 0.0));
  cfg.halt_after_iters =
      static_cast<long long>(env_double("IMAP_HALT_AFTER_ITERS", 0.0));
  return cfg;
}

}  // namespace imap
