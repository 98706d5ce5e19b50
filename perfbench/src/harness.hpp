// The two measurement procedures of the simulator cost benchmark. Both
// take the generated workload configuration (flat "key = value" lines,
// see run.py) and return one JSON object of raw observations; run.py
// turns those into named metrics and checks them.
#pragma once

#include <string>

#include "common/config.hpp"

namespace perfbench {

// End-to-end run, tracing off: replications on seeds drawn from
// `seed`, each timing the construction of the deployment, warming up for
// `warmup_s`, and measuring `window_s` simulated seconds in `chunks`
// rounds, until at least 8 have run and `host_seconds` of wall time have
// passed. The modeled results pool the first 8 windows, so they repeat
// exactly for a fixed seed.
[[nodiscard]] std::string RunEndToEnd(const actyp::Config& config);

// Traced run on the first replication's seed: one instrumented build /
// warmup / window / harvest, the isolated layer calls, and the
// differential variants (profiler off, flight recorder armed, churn
// removed, one directory replica, 4 LP workers), each repeated 5 times.
// Spans go to `span_out`.
[[nodiscard]] std::string RunTraced(const actyp::Config& config);

}  // namespace perfbench
