// scenario_ls: validate, canonicalize and expand scenario strings from the
// command line — the quickest way to answer "what exactly does this cell
// run?" before committing a grid to a bench run.
//
//   Usage: scenario_ls [-v|--verbose] PATTERN...
//
// Each PATTERN goes through scenario::expand (so `*` envs, comma
// alternations and `@lo..hi` seed ranges fan out) and every concrete
// scenario prints as its canonical string — the exact identity the
// experiment cache, the DAG scheduler and the serving API key on. With
// --verbose each line also shows the resolved threat model: base env,
// channel list with defaults applied, DR ranges and ε/budget.
//
// A malformed pattern prints the parser's pointed error on stderr and the
// exit status is 1 (after all patterns are processed), so shell scripts can
// use scenario_ls as a grid validator.

#include <iostream>
#include <string>
#include <vector>

#include "common/check.h"
#include "scenario/spec.h"

int main(int argc, char** argv) {
  using imap::scenario::ScenarioSpec;
  bool verbose = false;
  std::vector<std::string> patterns;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-v" || arg == "--verbose") verbose = true;
    else if (arg == "-h" || arg == "--help") {
      std::cout << "usage: scenario_ls [-v|--verbose] PATTERN...\n";
      return 0;
    } else patterns.push_back(arg);
  }
  if (patterns.empty()) {
    std::cerr << "scenario_ls: no patterns given (try --help)\n";
    return 1;
  }

  int failures = 0;
  for (const auto& pattern : patterns) {
    std::vector<ScenarioSpec> specs;
    try {
      specs = imap::scenario::expand(pattern);
    } catch (const imap::CheckError& e) {
      std::cerr << "scenario_ls: " << pattern << ": " << e.what() << "\n";
      ++failures;
      continue;
    }
    for (const auto& spec : specs) {
      std::cout << spec.canonical();
      if (verbose) {
        std::cout << "\n  env: " << spec.env
                  << "\n  epsilon: "
                  << imap::scenario::format_number(spec.epsilon())
                  << "\n  budget: "
                  << (spec.budget() > 0.0
                          ? imap::scenario::format_number(spec.budget())
                          : std::string("unbounded"));
        for (const auto& c : spec.channels)
          std::cout << "\n  channel: " << imap::scenario::to_string(c.kind)
                    << " = " << imap::scenario::format_number(c.param);
        for (const auto& r : spec.dr)
          std::cout << "\n  dr: " << r.key << " in ["
                    << imap::scenario::format_number(r.lo) << ", "
                    << imap::scenario::format_number(r.hi) << "]";
        if (spec.has_seed) std::cout << "\n  seed: " << spec.seed;
        std::cout << "\n";
      }
      std::cout << "\n";
    }
  }
  return failures > 0 ? 1 : 0;
}
