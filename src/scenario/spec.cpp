#include "scenario/spec.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>

#include "common/check.h"
#include "env/registry.h"

namespace imap::scenario {

namespace {

constexpr ChannelKind kAllKinds[] = {
    ChannelKind::ObsPerturb, ChannelKind::ActPerturb, ChannelKind::ObsDelay,
    ChannelKind::ObsDropout, ChannelKind::ObsNoise,   ChannelKind::Budget,
};

std::string lower(std::string s) {
  for (auto& c : s)
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

/// Registry env name, resolved case-insensitively ("hopper" -> "Hopper").
std::string resolve_env(const std::string& raw) {
  const auto resolved = env::resolve_name(raw);
  IMAP_CHECK_MSG(resolved.has_value(),
                 "scenario: unknown environment '" << raw << "'");
  return *resolved;
}

double parse_num(const std::string& s, const char* what) {
  double v = 0.0;
  const char* b = s.data();
  const char* e = s.data() + s.size();
  const auto res = std::from_chars(b, e, v);
  IMAP_CHECK_MSG(res.ec == std::errc() && res.ptr == e && std::isfinite(v),
                 "scenario: bad " << what << " '" << s << "'");
  return v + 0.0;  // -0 + 0 == +0: "-0" and "0" name one scenario
}

void validate_channel(const ChannelSpec& c) {
  switch (c.kind) {
    case ChannelKind::ObsPerturb:
    case ChannelKind::ActPerturb:
    case ChannelKind::ObsNoise:
      IMAP_CHECK_MSG(c.param >= 0.0, "scenario: " << to_string(c.kind)
                                                  << " needs eps >= 0");
      break;
    case ChannelKind::ObsDelay:
      IMAP_CHECK_MSG(c.param >= 1.0 && c.param <= 64.0 &&
                         c.param == std::floor(c.param),
                     "scenario: obs_delay needs an integer 1..64");
      break;
    case ChannelKind::ObsDropout:
      IMAP_CHECK_MSG(c.param >= 0.0 && c.param < 1.0,
                     "scenario: obs_dropout needs p in [0, 1)");
      break;
    case ChannelKind::Budget:
      IMAP_CHECK_MSG(c.param > 0.0, "scenario: budget needs B > 0");
      break;
  }
}

}  // namespace

const char* to_string(ChannelKind kind) {
  switch (kind) {
    case ChannelKind::ObsPerturb: return "obs_perturb";
    case ChannelKind::ActPerturb: return "act_perturb";
    case ChannelKind::ObsDelay: return "obs_delay";
    case ChannelKind::ObsDropout: return "obs_dropout";
    case ChannelKind::ObsNoise: return "obs_noise";
    case ChannelKind::Budget: return "budget";
  }
  return "?";
}

std::string format_number(double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

const ChannelSpec* ScenarioSpec::channel(ChannelKind kind) const {
  for (const auto& c : channels)
    if (c.kind == kind) return &c;
  return nullptr;
}

bool ScenarioSpec::attackable() const {
  return channel(ChannelKind::ObsPerturb) != nullptr ||
         channel(ChannelKind::ActPerturb) != nullptr;
}

double ScenarioSpec::epsilon() const {
  if (const auto* c = channel(ChannelKind::ObsPerturb)) return c->param;
  return env::spec(env).epsilon;
}

double ScenarioSpec::budget() const {
  if (const auto* c = channel(ChannelKind::Budget)) return c->param;
  return 0.0;
}

std::string ScenarioSpec::canonical() const {
  std::string out = env;
  for (const auto& c : channels) {
    out += '+';
    out += to_string(c.kind);
    out += ':';
    out += format_number(c.param);
  }
  if (!dr.empty()) {
    out += "+dr[";
    for (std::size_t i = 0; i < dr.size(); ++i) {
      if (i) out += ',';
      out += dr[i].key;
      out += ':';
      out += format_number(dr[i].lo);
      out += "..";
      out += format_number(dr[i].hi);
    }
    out += ']';
  }
  if (has_seed) {
    out += '@';
    out += std::to_string(seed);
  }
  return out;
}

ScenarioSpec parse(const std::string& text) {
  std::string s = text;
  s.erase(std::remove_if(s.begin(), s.end(),
                         [](unsigned char c) { return std::isspace(c); }),
          s.end());
  IMAP_CHECK_MSG(!s.empty(), "scenario: empty spec");

  ScenarioSpec spec;

  // Seed suffix: the '@' never appears inside dr[...], so a plain find on
  // the tail is unambiguous.
  const auto at = s.rfind('@');
  if (at != std::string::npos && s.find(']', at) == std::string::npos) {
    const std::string tail = s.substr(at + 1);
    IMAP_CHECK_MSG(tail.find("..") == std::string::npos,
                   "scenario: seed ranges ('@lo..hi') are only valid in "
                   "expand() patterns, not in a concrete spec");
    std::uint64_t seed = 0;
    const auto res =
        std::from_chars(tail.data(), tail.data() + tail.size(), seed);
    IMAP_CHECK_MSG(res.ec == std::errc() &&
                       res.ptr == tail.data() + tail.size() && !tail.empty(),
                   "scenario: bad seed '" << tail << "'");
    spec.seed = seed;
    spec.has_seed = true;
    s = s.substr(0, at);
  }

  // '+'-separated components: env first, then channels / one dr block.
  std::vector<std::string> parts;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    auto next = s.find('+', pos);
    if (next == std::string::npos) next = s.size();
    parts.push_back(s.substr(pos, next - pos));
    pos = next + 1;
  }
  IMAP_CHECK_MSG(!parts[0].empty(), "scenario: missing environment name");
  spec.env = resolve_env(parts[0]);

  bool saw_dr = false;
  for (std::size_t i = 1; i < parts.size(); ++i) {
    const std::string& part = parts[i];
    IMAP_CHECK_MSG(!part.empty(), "scenario: empty '+' component in '"
                                      << text << "'");
    if (part.rfind("dr[", 0) == 0) {
      IMAP_CHECK_MSG(!saw_dr, "scenario: more than one dr[...] block");
      IMAP_CHECK_MSG(part.back() == ']', "scenario: unterminated dr[...]");
      saw_dr = true;
      const std::string body = part.substr(3, part.size() - 4);
      IMAP_CHECK_MSG(!body.empty(), "scenario: empty dr[...]");
      std::size_t rpos = 0;
      while (rpos <= body.size()) {
        auto rnext = body.find(',', rpos);
        if (rnext == std::string::npos) rnext = body.size();
        const std::string range = body.substr(rpos, rnext - rpos);
        rpos = rnext + 1;
        const auto colon = range.find(':');
        IMAP_CHECK_MSG(colon != std::string::npos,
                       "scenario: dr range '" << range << "' needs key:lo..hi");
        DrRange r;
        r.key = lower(range.substr(0, colon));
        IMAP_CHECK_MSG(
            r.key == "mass" || r.key == "gain" || r.key == "budget",
            "scenario: unknown dr key '" << r.key
                                         << "' (mass, gain, budget)");
        const std::string span = range.substr(colon + 1);
        const auto dots = span.find("..");
        IMAP_CHECK_MSG(dots != std::string::npos,
                       "scenario: dr range '" << range << "' needs lo..hi");
        r.lo = parse_num(span.substr(0, dots), "dr bound");
        r.hi = parse_num(span.substr(dots + 2), "dr bound");
        IMAP_CHECK_MSG(r.lo > 0.0 && r.hi >= r.lo,
                       "scenario: dr range '" << range
                                              << "' needs 0 < lo <= hi");
        for (const auto& prev : spec.dr)
          IMAP_CHECK_MSG(prev.key != r.key,
                         "scenario: duplicate dr key '" << r.key << "'");
        spec.dr.push_back(std::move(r));
      }
      continue;
    }
    // Channel component: name[:param].
    const auto colon = part.find(':');
    const std::string name = lower(part.substr(0, colon));
    ChannelSpec c;
    bool known = false;
    for (const auto kind : kAllKinds)
      if (name == to_string(kind)) {
        c.kind = kind;
        known = true;
        break;
      }
    IMAP_CHECK_MSG(known, "scenario: unknown channel '" << name << "'");
    if (colon != std::string::npos) {
      c.param = parse_num(part.substr(colon + 1), "channel parameter");
    } else {
      // Defaults: perturbation eps falls back to the registry budget,
      // delay to one step; dropout and budget have no sensible default.
      switch (c.kind) {
        case ChannelKind::ObsPerturb:
        case ChannelKind::ActPerturb:
        case ChannelKind::ObsNoise:
          c.param = env::spec(spec.env).epsilon;
          break;
        case ChannelKind::ObsDelay:
          c.param = 1.0;
          break;
        case ChannelKind::ObsDropout:
        case ChannelKind::Budget:
          IMAP_CHECK_MSG(false, "scenario: " << name
                                             << " needs an explicit value");
          break;
      }
    }
    validate_channel(c);
    for (const auto& prev : spec.channels)
      IMAP_CHECK_MSG(prev.kind != c.kind,
                     "scenario: duplicate channel '" << name << "'");
    spec.channels.push_back(c);
  }

  // Canonical order: channels by pipeline position, dr by key.
  std::sort(spec.channels.begin(), spec.channels.end(),
            [](const ChannelSpec& a, const ChannelSpec& b) {
              return static_cast<int>(a.kind) < static_cast<int>(b.kind);
            });
  std::sort(spec.dr.begin(), spec.dr.end(),
            [](const DrRange& a, const DrRange& b) { return a.key < b.key; });

  // Cross-field validation.
  if (!spec.trivial())
    IMAP_CHECK_MSG(
        env::spec(spec.env).type != env::TaskType::MultiAgent,
        "scenario: channels/dr/seed unsupported on multi-agent game '"
            << spec.env << "'");
  for (const auto& r : spec.dr)
    if (r.key == "budget")
      IMAP_CHECK_MSG(
          spec.channel(ChannelKind::Budget) != nullptr ||
              spec.channel(ChannelKind::ObsPerturb) != nullptr ||
              spec.channel(ChannelKind::ActPerturb) != nullptr ||
              spec.channel(ChannelKind::ObsNoise) != nullptr,
          "scenario: dr[budget:...] scales perturbation budgets, but no "
          "perturbation/budget channel is present");
  return spec;
}

std::string canonical(const std::string& text) {
  return parse(text).canonical();
}

std::optional<std::string> try_canonical(const std::string& text) {
  try {
    return canonical(text);
  } catch (const CheckError&) {
    return std::nullopt;
  }
}

ScenarioSpec with_default_threat(ScenarioSpec spec) {
  if (spec.attackable()) return spec;
  ChannelSpec c;
  c.kind = ChannelKind::ObsPerturb;
  c.param = env::spec(spec.env).epsilon;
  spec.channels.insert(spec.channels.begin(), c);
  return spec;
}

ScenarioSpec state_perturbation(std::string env, double eps) {
  ScenarioSpec spec;
  spec.env = std::move(env);
  spec.channels.push_back({ChannelKind::ObsPerturb, eps});
  validate_channel(spec.channels.front());
  return spec;
}

std::vector<ScenarioSpec> expand(const std::string& pattern) {
  std::string s = pattern;
  s.erase(std::remove_if(s.begin(), s.end(),
                         [](unsigned char c) { return std::isspace(c); }),
          s.end());
  IMAP_CHECK_MSG(!s.empty(), "scenario: empty pattern");

  // Seed range suffix.
  std::vector<std::string> seed_suffixes{""};
  const auto at = s.rfind('@');
  if (at != std::string::npos && s.find(']', at) == std::string::npos) {
    const std::string tail = s.substr(at + 1);
    s = s.substr(0, at);
    const auto dots = tail.find("..");
    if (dots == std::string::npos) {
      seed_suffixes = {"@" + tail};
    } else {
      const auto lo = static_cast<long long>(
          parse_num(tail.substr(0, dots), "seed range"));
      const auto hi = static_cast<long long>(
          parse_num(tail.substr(dots + 2), "seed range"));
      IMAP_CHECK_MSG(lo >= 0 && hi >= lo && hi - lo < 4096,
                     "scenario: bad seed range '@" << tail << "'");
      seed_suffixes.clear();
      // Appending instead of `"@" + std::to_string(v)`: GCC 12 reports a
      // false -Wrestrict on that operator+ overload at -O3.
      for (long long v = lo; v <= hi; ++v)
        seed_suffixes.push_back(std::string("@").append(std::to_string(v)));
    }
  }

  // Env alternation: the leading component up to the first '+'.
  auto plus = s.find('+');
  if (plus == std::string::npos) plus = s.size();
  const std::string env_part = s.substr(0, plus);
  const std::string rest = s.substr(plus);
  std::vector<std::string> envs;
  if (env_part == "*") {
    for (const auto& e : env::single_agent_specs()) envs.push_back(e.name);
  } else {
    std::size_t pos = 0;
    while (pos <= env_part.size()) {
      auto next = env_part.find(',', pos);
      if (next == std::string::npos) next = env_part.size();
      envs.push_back(env_part.substr(pos, next - pos));
      pos = next + 1;
    }
  }

  std::vector<ScenarioSpec> out;
  out.reserve(envs.size() * seed_suffixes.size());
  for (const auto& e : envs)
    for (const auto& suffix : seed_suffixes)
      out.push_back(parse(e + rest + suffix));
  return out;
}

}  // namespace imap::scenario
