#pragma once

#include <string>

#include "common.hpp"

namespace perfbench {

/// End-to-end metrics (BENCHMARK.json "end_to_end") of one workload, with
/// no tracing.
void run_untraced(const Args& a, Metrics& m, Checks& checks);

/// Per-layer metrics (BENCHMARK.json "per_layer") of one workload from the
/// layer-by-layer pipeline under spans; writes the Chrome trace to
/// `trace_path` with `provenance` (a JSON object) as its otherData.
void run_traced(const Args& a, Metrics& m, Checks& checks,
                const std::string& trace_path, const std::string& provenance);

}  // namespace perfbench
