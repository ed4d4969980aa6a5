#pragma once

// Small helpers shared by the benchmark's cell runner and load generator:
// clocks, JSON output, process memory, machine context and median timing of
// a callable.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Flat JSON object writer: numbers keep every digit (shortest round-trip),
/// nested values are passed pre-rendered.
class Json {
 public:
  Json& num(const std::string& key, double v);
  Json& integer(const std::string& key, long long v);
  Json& str(const std::string& key, const std::string& v);
  Json& boolean(const std::string& key, bool v);
  Json& raw(const std::string& key, const std::string& rendered);
  std::string render() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// JSON array of numbers, every digit kept.
std::string json_array(const std::vector<double>& v);

/// VmHWM of `pid` (0 = this process) in MiB, or -1 when unreadable.
double peak_rss_mb(int pid = 0);

/// User + system CPU seconds `pid` has used so far (all threads), or -1.
double cpu_seconds(int pid);

/// The machine context every result records: nproc, the active SIMD
/// backend, IMAP_THREADS and the build type.
std::string context_json();

/// Median over `blocks` blocks of the per-call time (microseconds) of `fn`,
/// each block running `calls` calls back to back. Block means smooth the
/// clock's granularity; the median over blocks drops preempted blocks.
double median_call_us(const std::function<void()>& fn, int blocks, int calls);

/// FNV-1a accumulator for outcome digests.
struct Digest {
  std::uint64_t h = 1469598103934665603ULL;
  void bytes(const void* p, std::size_t n);
  void f64(double v) { bytes(&v, sizeof v); }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  std::string hex() const;
};

/// CRC-32 of a whole file (the archive layer's polynomial); 0 if unreadable.
std::uint32_t file_crc(const std::string& path);

/// Required "--key value" argument lookup with a readable failure.
std::string arg(const std::map<std::string, std::string>& args,
                const std::string& key);
std::map<std::string, std::string> parse_args(int argc, char** argv, int from);

}  // namespace e2e
