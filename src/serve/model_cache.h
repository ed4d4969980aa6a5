#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>

#include "common/proc.h"
#include "core/zoo.h"
#include "rl/policy_handle.h"
#include "serve/metrics.h"

namespace imap::serve {

/// One resident victim: an immutable snapshot of a zoo checkpoint plus its
/// serving handle. Identity is (archive format version, content CRC-32 of
/// the checkpoint file) — the same key discipline the PR-5 archive layer
/// uses on disk — so "did the victim change" is a byte-level question, never
/// a guess from names or timestamps. Request handlers hold a shared_ptr for
/// the duration of a request: a concurrent hot-swap publishes a new
/// ServedModel without invalidating rows already in flight on the old one.
struct ServedModel {
  std::string env;                ///< base registry env backing the victim
  /// Canonical scenario string this entry serves (= env for plain lookups;
  /// the raw name verbatim for injected synthetic victims that don't parse).
  /// Distinct scenarios over one base env are distinct residents, each
  /// reporting its own threat-model ε/budget, all loading the same
  /// checkpoint.
  std::string scenario;
  std::string defense;
  std::string path;               ///< checkpoint file ("" for injected nets)
  std::uint64_t archive_version = 0;
  std::uint32_t content_crc = 0;  ///< CRC-32 over the checkpoint bytes
  proc::FileSig sig;              ///< on-disk signature at verification time
  bool quantized = false;
  double epsilon = 0.0;           ///< scenario obs-perturbation ε
  double budget = 0.0;            ///< per-episode ε budget (0 = unbounded)
  std::shared_ptr<const nn::GaussianPolicy> policy;
  rl::PolicyHandle handle;        ///< int8 or fp64, fixed at build time

  std::string key() const { return scenario + "|" + defense; }
};

/// TTL'd, capacity-bounded cache of resident victims.
///
/// Lookup ladder (cheapest first):
///  1. live entry inside its TTL — shared_ptr copy, no syscalls;
///  2. TTL-expired entry whose checkpoint stat signature is unchanged —
///     one stat(), entry re-armed (the memoized CRC check: those bytes
///     were already verified);
///  3. signature changed — full reload + CRC, new ServedModel published
///     (hot swap); the old snapshot serves its in-flight requests out;
///  4. nothing on disk — the zoo trains the victim, then 3.
///
/// Capacity overflow evicts the least-recently-used entry. All loads happen
/// outside the cache mutex behind a per-key latch, so a slow (re)build of
/// one victim never blocks lookups of others.
class ModelCache {
 public:
  struct Options {
    int capacity = 16;
    long long ttl_ms = 60'000;  ///< <= 0: every lookup revalidates
    bool quant = true;          ///< serve int8 handles (fp64 otherwise)
  };

  ModelCache(core::Zoo& zoo, Options opts, ServeMetrics* metrics = nullptr);

  /// Resident model for (env-or-scenario, defense); loads/trains on miss,
  /// revalidates on TTL expiry. `env` may be any scenario string — it is
  /// canonicalized first so equal scenarios share one resident; names that
  /// don't parse (injected synthetic victims) key verbatim. Throws
  /// CheckError for unknown registry envs. With `blocking` false it stops
  /// after ladder steps 1–2: nullptr instead of building or waiting.
  std::shared_ptr<const ServedModel> get(const std::string& env,
                                         const std::string& defense,
                                         bool blocking = true);

  /// Drop one entry / every entry (in-flight requests keep their snapshot).
  void invalidate(const std::string& env, const std::string& defense);
  void invalidate_all();

  /// Inject an in-memory network as (env, defense) — benches and tests
  /// build synthetic victims without a zoo directory. Subject to the same
  /// TTL/capacity lifecycle; revalidation re-arms it (no backing file).
  std::shared_ptr<const ServedModel> put(
      const std::string& env, const std::string& defense,
      std::shared_ptr<const nn::GaussianPolicy> policy);

  std::size_t size() const;

  /// JSON array describing resident entries (the /models route).
  std::string render_json() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Entry {
    std::shared_ptr<const ServedModel> model;
    Clock::time_point loaded_at;   ///< TTL anchor (reset by revalidation)
    Clock::time_point last_used;   ///< LRU anchor
  };

  /// Read + CRC + parse the checkpoint at its current on-disk state, train
  /// it first if absent. `ident` is the already-canonicalized scenario (or
  /// verbatim synthetic name). Called outside the mutex (slow path).
  std::shared_ptr<const ServedModel> build(const std::string& ident,
                                           const std::string& defense);
  void evict_over_capacity_locked();

  core::Zoo& zoo_;
  Options opts_;
  ServeMetrics* metrics_;
  mutable std::mutex m_;
  std::condition_variable cv_;
  std::map<std::string, Entry> entries_;
  std::set<std::string> loading_;  ///< keys being built outside the lock
};

}  // namespace imap::serve
