#pragma once

// The paper-cell workloads: victim -> attack -> eval on a fresh zoo.

#include <cstdint>
#include <string>

#include "trace.h"

namespace e2e {

/// One repetition of a cell workload in `dir` (a fresh, empty zoo). With a
/// null tracer the cell runs through ExperimentRunner::run exactly as the
/// bench binaries do; with a tracer the same cell is rebuilt from public
/// parts with a span around every layer call, and must give the same
/// outcome digest. Returns the result as one JSON object.
std::string run_cell(const std::string& workload, std::uint64_t seed,
                     const std::string& dir, Tracer* tracer);

/// Cell-side layer probes (env step, victim query at the rollout engine's
/// width) on the victim a finished repetition left in `dir`.
std::string cell_probes(const std::string& workload, std::uint64_t seed,
                        const std::string& dir);

}  // namespace e2e
