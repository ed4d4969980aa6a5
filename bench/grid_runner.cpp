#include "grid_runner.h"

#include <cctype>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/thread_pool.h"

namespace imap::bench {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

BenchConfig config_or_exit(const char* binary) {
  try {
    return BenchConfig::from_env();
  } catch (const std::invalid_argument& e) {
    std::cerr << binary << ": " << e.what() << "\n";
    std::exit(1);
  }
}

long long env_int_or_exit(const char* binary, const char* name,
                          long long fallback, long long lo, long long hi) {
  try {
    return env_int(name, fallback, lo, hi);
  } catch (const std::invalid_argument& e) {
    std::cerr << binary << ": " << e.what() << "\n";
    std::exit(1);
  }
}

std::string node_label(const core::DagNode& node) {
  const auto& plan = node.plan;
  std::string label =
      node.kind == core::DagNode::Kind::Attack
          ? plan.env_name + "/" + plan.defense + "/" +
                core::to_string(plan.attack) +
                (plan.bias_reduction ? "+BR" : "")
          : "victim/" + node.env_name + "/" + node.defense;
  for (auto& c : label)
    if (c == ' ') c = '-';
  return label;
}

GridRunner::GridRunner(core::ExperimentRunner& runner, std::string bench_name)
    : runner_(runner), bench_name_(std::move(bench_name)) {}

std::vector<core::AttackOutcome> GridRunner::run_plans(
    const std::vector<core::AttackPlan>& plans) {
  const auto t0 = std::chrono::steady_clock::now();
  core::DagScheduler sched(runner_.config());
  std::cerr << "  [" << bench_name_ << "] running " << plans.size()
            << " cells through the DAG scheduler ("
            << effective_concurrency() << " threads)\n";
  auto out = sched.run(plans);
  const auto& nodes = sched.nodes();
  for (std::size_t i = 0; i < nodes.size(); ++i)
    timings_.push_back({node_label(nodes[i]), sched.node_seconds()[i]});
  wall_seconds_ += seconds_since(t0);
  return out;
}

void GridRunner::run_jobs(
    std::vector<std::pair<std::string, std::function<void()>>> jobs) {
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<double> secs(jobs.size(), 0.0);
  std::mutex log_m;
  parallel_for(
      jobs.size(),
      [&](std::size_t j) {
        {
          std::lock_guard<std::mutex> lk(log_m);
          std::cerr << "  [" << bench_name_ << "] running " << jobs[j].first
                    << "...\n";
        }
        const auto c0 = std::chrono::steady_clock::now();
        jobs[j].second();
        secs[j] = seconds_since(c0);
      },
      /*grain=*/1);
  for (std::size_t j = 0; j < jobs.size(); ++j)
    timings_.push_back({jobs[j].first, secs[j]});
  wall_seconds_ += seconds_since(t0);
}

void GridRunner::write_report() const {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(3);
  os << "{\"threads\": " << effective_concurrency()
     << ", \"hardware_threads\": " << std::thread::hardware_concurrency()
     << ", \"cells\": " << timings_.size() << ", \"wall_s\": " << wall_seconds_
     << ", \"cell_wall_s\": {";
  for (std::size_t i = 0; i < timings_.size(); ++i) {
    if (i) os << ", ";
    os << '"' << timings_[i].label << "\": " << timings_[i].seconds;
  }
  os << "}}";
  write_parallel_report_entry(bench_name_, os.str());
  std::cerr << "  [" << bench_name_ << "] " << timings_.size() << " cells in "
            << wall_seconds_ << "s wall (" << effective_concurrency()
            << " threads) -> BENCH_parallel.json\n";
}

namespace {

/// Split the top level of a flat JSON object {"k": <value>, ...} into
/// (key, raw value) pairs. Minimal but sufficient for files we wrote
/// ourselves; anything unparseable is dropped rather than corrupted further.
std::vector<std::pair<std::string, std::string>> split_top_level(
    const std::string& text) {
  std::vector<std::pair<std::string, std::string>> out;
  std::size_t i = 0;
  const auto skip_ws = [&] {
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i])))
      ++i;
  };
  skip_ws();
  if (i >= text.size() || text[i] != '{') return out;
  ++i;
  while (true) {
    skip_ws();
    if (i >= text.size()) return out;
    if (text[i] == '}') return out;
    if (text[i] == ',') {
      ++i;
      continue;
    }
    if (text[i] != '"') return out;
    ++i;
    std::string key;
    while (i < text.size() && text[i] != '"') {
      if (text[i] == '\\' && i + 1 < text.size()) key += text[i++];
      key += text[i++];
    }
    if (i >= text.size()) return out;
    ++i;  // closing quote
    skip_ws();
    if (i >= text.size() || text[i] != ':') return out;
    ++i;
    skip_ws();
    // Raw value: balance braces/brackets outside strings until a top-level
    // ',' or the closing '}'.
    const std::size_t vstart = i;
    int depth = 0;
    bool in_str = false;
    while (i < text.size()) {
      const char c = text[i];
      if (in_str) {
        if (c == '\\')
          ++i;
        else if (c == '"')
          in_str = false;
      } else if (c == '"') {
        in_str = true;
      } else if (c == '{' || c == '[') {
        ++depth;
      } else if (c == '}' || c == ']') {
        if (depth == 0) break;
        --depth;
      } else if (c == ',' && depth == 0) {
        break;
      }
      ++i;
    }
    std::string value = text.substr(vstart, i - vstart);
    while (!value.empty() &&
           std::isspace(static_cast<unsigned char>(value.back())))
      value.pop_back();
    out.emplace_back(std::move(key), std::move(value));
  }
}

}  // namespace

double min_seconds(int reps, const std::function<void()>& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    best = std::min(best, seconds_since(t0));
  }
  return best;
}

void write_parallel_report_entry(const std::string& bench_name,
                                 const std::string& entry_json) {
  const std::string path = "BENCH_parallel.json";
  std::vector<std::pair<std::string, std::string>> entries;
  if (std::filesystem::exists(path)) {
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    entries = split_top_level(ss.str());
  }
  bool replaced = false;
  for (auto& [k, v] : entries)
    if (k == bench_name) {
      v = entry_json;
      replaced = true;
    }
  if (!replaced) entries.emplace_back(bench_name, entry_json);

  std::ofstream out(path);
  out << "{\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    out << "  \"" << entries[i].first << "\": " << entries[i].second;
    out << (i + 1 < entries.size() ? ",\n" : "\n");
  }
  out << "}\n";
}

}  // namespace imap::bench
