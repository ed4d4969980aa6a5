#include "serve/model_cache.h"

#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/serialize.h"
#include "scenario/spec.h"

namespace imap::serve {

namespace {

/// Canonical cache identity for a lookup name: the canonical scenario string
/// when the name parses, the raw name verbatim otherwise (injected synthetic
/// victims bypass the grammar instead of faulting residency lookups).
std::string cache_ident(const std::string& name) {
  const auto canon = scenario::try_canonical(name);
  return canon ? *canon : name;
}

/// Fill a model's scenario identity fields from `ident`; resolves the base
/// env the checkpoint lives under.
void fill_scenario(ServedModel& model, const std::string& ident) {
  model.scenario = ident;
  model.env = ident;
  if (scenario::try_canonical(ident)) {
    const auto spec = scenario::parse(ident);
    model.env = spec.env;
    model.epsilon = spec.epsilon();
    model.budget = spec.budget();
  }
}

/// CRC-32 over the checkpoint's payload — the content half of the cache
/// key. Archive files end in a 4-byte crc32(payload) trailer, and CRC-32 of
/// any message with its own CRC appended is the fixed residue 0x2144DF1C —
/// a whole-file CRC would "fingerprint" every well-formed archive
/// identically. Checksumming the payload (everything before the trailer)
/// yields the archive's own stored CRC: distinct per content, and exactly
/// the value ckpt_inspect reports. Returns false when the file cannot be
/// read.
bool crc_of_file(const std::string& path, std::uint32_t& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  const std::size_t payload = bytes.size() >= 4 ? bytes.size() - 4 : 0;
  out = crc32(reinterpret_cast<const std::uint8_t*>(bytes.data()), payload);
  return true;
}

}  // namespace

ModelCache::ModelCache(core::Zoo& zoo, Options opts, ServeMetrics* metrics)
    : zoo_(zoo), opts_(opts), metrics_(metrics) {
  IMAP_CHECK_MSG(opts_.capacity > 0, "model cache capacity must be positive");
}

std::shared_ptr<const ServedModel> ModelCache::build(
    const std::string& ident, const std::string& defense) {
  auto model = std::make_shared<ServedModel>();
  fill_scenario(*model, ident);
  model->defense = defense;
  // The checkpoint is the BASE env's victim — every scenario over that env
  // serves the same bytes; the scenario only changes the reported threat
  // model (and what the client wraps around the victim's answers).
  model->path = zoo_.checkpoint_path(model->env, defense);
  // The zoo call loads the checkpoint (training it first on a cold zoo) and
  // CRC-verifies the archive trailer during the parse; the file-level CRC
  // below is this cache's own fingerprint of the exact bytes served.
  model->policy = zoo_.victim_shared(model->env, defense);
  model->archive_version = kFormatVersion;
  IMAP_CHECK_MSG(crc_of_file(model->path, model->content_crc),
                 "checkpoint vanished after load: " << model->path);
  const auto sig = proc::file_sig(model->path);
  IMAP_CHECK_MSG(sig.has_value(),
                 "checkpoint vanished after load: " << model->path);
  model->sig = *sig;
  model->quantized = opts_.quant;
  model->handle = rl::PolicyHandle::serving(model->policy, opts_.quant);
  return model;
}

std::shared_ptr<const ServedModel> ModelCache::get(const std::string& env,
                                                   const std::string& defense,
                                                   bool blocking) {
  const std::string ident = cache_ident(env);
  const std::string key = ident + "|" + defense;
  const auto ttl = std::chrono::milliseconds(opts_.ttl_ms);

  bool reload = false;  // expired entry whose bytes changed on disk
  {
    std::unique_lock<std::mutex> lk(m_);
    for (;;) {
      const auto it = entries_.find(key);
      if (it != entries_.end()) {
        const auto now = Clock::now();
        if (opts_.ttl_ms > 0 && now - it->second.loaded_at < ttl) {
          it->second.last_used = now;
          if (metrics_ != nullptr) metrics_->cache_hits.inc();
          return it->second.model;
        }
        // TTL expired: one stat() decides between re-arm and rebuild. An
        // injected entry has no backing file to drift from — re-arm it.
        const auto& model = *it->second.model;
        const auto sig =
            model.path.empty() ? std::optional<proc::FileSig>(model.sig)
                               : proc::file_sig(model.path);
        if (sig.has_value() && *sig == model.sig) {
          it->second.loaded_at = now;
          it->second.last_used = now;
          if (metrics_ != nullptr) {
            metrics_->cache_revalidations.inc();
            metrics_->cache_hits.inc();
          }
          return it->second.model;
        }
        reload = true;
      }
      if (!blocking) return nullptr;
      if (loading_.insert(key).second) break;  // we build it
      cv_.wait(lk);  // someone else is building this key — wait for them
    }
  }

  // Slow path, outside the lock: other keys keep serving while this one
  // loads (possibly training a victim from scratch on a cold zoo).
  std::shared_ptr<const ServedModel> model;
  try {
    model = build(ident, defense);
  } catch (...) {
    std::lock_guard<std::mutex> lk(m_);
    loading_.erase(key);
    cv_.notify_all();
    throw;
  }

  std::lock_guard<std::mutex> lk(m_);
  loading_.erase(key);
  const auto now = Clock::now();
  entries_[key] = Entry{model, now, now};
  evict_over_capacity_locked();
  if (metrics_ != nullptr) {
    if (reload)
      metrics_->cache_reloads.inc();
    else
      metrics_->cache_misses.inc();
  }
  cv_.notify_all();
  return model;
}

void ModelCache::invalidate(const std::string& env,
                            const std::string& defense) {
  std::lock_guard<std::mutex> lk(m_);
  entries_.erase(cache_ident(env) + "|" + defense);
}

void ModelCache::invalidate_all() {
  std::lock_guard<std::mutex> lk(m_);
  entries_.clear();
}

std::shared_ptr<const ServedModel> ModelCache::put(
    const std::string& env, const std::string& defense,
    std::shared_ptr<const nn::GaussianPolicy> policy) {
  auto model = std::make_shared<ServedModel>();
  fill_scenario(*model, cache_ident(env));
  model->defense = defense;
  model->archive_version = kFormatVersion;
  model->quantized = opts_.quant;
  model->policy = std::move(policy);
  model->handle = rl::PolicyHandle::serving(model->policy, opts_.quant);

  std::lock_guard<std::mutex> lk(m_);
  const auto now = Clock::now();
  entries_[model->key()] = Entry{model, now, now};
  evict_over_capacity_locked();
  return model;
}

void ModelCache::evict_over_capacity_locked() {
  while (entries_.size() > static_cast<std::size_t>(opts_.capacity)) {
    auto victim = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it)
      if (it->second.last_used < victim->second.last_used) victim = it;
    entries_.erase(victim);
    if (metrics_ != nullptr) metrics_->cache_evictions.inc();
  }
}

std::size_t ModelCache::size() const {
  std::lock_guard<std::mutex> lk(m_);
  return entries_.size();
}

std::string ModelCache::render_json() const {
  std::lock_guard<std::mutex> lk(m_);
  const auto now = Clock::now();
  std::ostringstream os;
  os << "[";
  bool first = true;
  for (const auto& [key, entry] : entries_) {
    const auto& m = *entry.model;
    const auto age =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            now - entry.loaded_at)
            .count();
    if (!first) os << ",";
    first = false;
    os << "{\"env\":\"" << m.env << "\",\"scenario\":\"" << m.scenario
       << "\",\"defense\":\"" << m.defense
       << "\",\"archive_version\":" << m.archive_version
       << ",\"content_crc\":" << m.content_crc
       << ",\"quantized\":" << (m.quantized ? "true" : "false")
       << ",\"epsilon\":" << scenario::format_number(m.epsilon)
       << ",\"budget\":" << scenario::format_number(m.budget)
       << ",\"age_ms\":" << age << "}";
  }
  os << "]";
  return os.str();
}

}  // namespace imap::serve
