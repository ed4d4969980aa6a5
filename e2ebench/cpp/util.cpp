#include "util.h"

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>

#include "common/serialize.h"
#include "nn/kernel_backend.h"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace e2e {

namespace {

std::string json_number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out + "\"";
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace

std::string json_array(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += ',';
    out += json_number(v[i]);
  }
  return out + "]";
}

Json& Json::num(const std::string& key, double v) {
  fields_.emplace_back(key, json_number(v));
  return *this;
}
Json& Json::integer(const std::string& key, long long v) {
  fields_.emplace_back(key, std::to_string(v));
  return *this;
}
Json& Json::str(const std::string& key, const std::string& v) {
  fields_.emplace_back(key, json_string(v));
  return *this;
}
Json& Json::boolean(const std::string& key, bool v) {
  fields_.emplace_back(key, v ? "true" : "false");
  return *this;
}
Json& Json::raw(const std::string& key, const std::string& rendered) {
  fields_.emplace_back(key, rendered);
  return *this;
}
std::string Json::render() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i) out += ", ";
    out += json_string(fields_[i].first) + ": " + fields_[i].second;
  }
  return out + "}";
}

double peak_rss_mb(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return -1.0;
}

double cpu_seconds(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat;
  std::getline(in, stat);
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) return -1.0;
  std::istringstream rest(stat.substr(close + 2));
  std::string field;
  double utime = 0.0, stime = 0.0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::strtod(field.c_str(), nullptr);
    if (i == 15) stime = std::strtod(field.c_str(), nullptr);
  }
  return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

std::string context_json() {
  const char* threads = std::getenv("IMAP_THREADS");
  return Json()
      .integer("nproc", sysconf(_SC_NPROCESSORS_ONLN))
      .str("backend", imap::nn::kernel::active_backend().name)
      .str("imap_threads", threads ? threads : "")
      .str("build_type", E2E_BUILD_TYPE)
      .render();
}

double median_call_us(const std::function<void()>& fn, int blocks,
                      int calls) {
  fn();  // warm caches and lazy set-up outside the timed blocks
  std::vector<double> per_call;
  per_call.reserve(static_cast<std::size_t>(blocks));
  for (int b = 0; b < blocks; ++b) {
    const auto t0 = Clock::now();
    for (int c = 0; c < calls; ++c) fn();
    per_call.push_back(seconds_since(t0) * 1e6 / calls);
  }
  return median(std::move(per_call));
}

void Digest::bytes(const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 1099511628211ULL;
  }
}

std::string Digest::hex() const {
  std::ostringstream os;
  os << std::hex << h;
  return os.str();
}

std::uint32_t file_crc(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return 0;
  const std::vector<std::uint8_t> data((std::istreambuf_iterator<char>(in)),
                                       std::istreambuf_iterator<char>());
  return imap::crc32(data.data(), data.size());
}

std::map<std::string, std::string> parse_args(int argc, char** argv,
                                              int from) {
  std::map<std::string, std::string> out;
  for (int i = from; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc)
      throw std::runtime_error("bad argument: " + key);
    out[key.substr(2)] = argv[++i];
  }
  return out;
}

std::string arg(const std::map<std::string, std::string>& args,
                const std::string& key) {
  const auto it = args.find(key);
  if (it == args.end()) throw std::runtime_error("missing --" + key);
  return it->second;
}

}  // namespace e2e
