#pragma once

// Serving workloads: the plan file, the imap_serve child process, and the
// traffic session.

#include <cstdint>
#include <string>
#include <vector>

#include "serve_load.h"
#include "trace.h"

namespace e2e {

/// A traffic plan as written by run.py:
///   victim <env> <defense>
///   phase <name> open            followed by   item <due_s> <victim> <rows>
///   phase <name> closed <count>  followed by   mix <victim> <rows>
/// rows == 0 in an item is a reload of that victim's checkpoint.
struct Plan {
  std::vector<std::pair<std::string, std::string>> victims;
  std::vector<Phase> phases;
};
Plan read_plan(const std::string& path);

/// serve-* workloads: write seeded random victims of the zoo's victim shape
/// into `dir`, start the real imap_serve `setups` times (timing spawn ->
/// every victim answered once), drive the plan's phases against the last
/// instance and check every answer. Returns the result JSON.
std::string run_serve(const std::string& serve_bin, const std::string& dir,
                      std::uint64_t seed, const Plan& plan, int setups,
                      Tracer* tracer);

}  // namespace e2e
