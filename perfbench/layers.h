// Per-layer replays for the traced run: each times calls into one module's
// public functions at the workload's shapes, from the benchmark's own code.
#pragma once

#include <string>

#include "trace.h"
#include "workload.h"

namespace perfbench {

/// Runs every replay that applies to `spec` and adds its metrics to `out`;
/// a layer the workload does not exercise reports 0. Scratch relations go
/// under `work_dir`. Each replayed call is recorded as a span in `log`.
void ReplayLayers(const WorkloadSpec& spec, const Inputs& in,
                  const std::string& work_dir, SpanLog* log, Metrics* out);

}  // namespace perfbench
