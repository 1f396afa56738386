// The traced run: the scenario workload::replay would run, composed here
// from the same public APIs (build_topology, ParallelRuntime, StormSource,
// EdgeProgram, optimize_program, set_dispatch_plan, register_aggregated),
// with spans recorded around set-up, every run_until call, every DUT
// handler call and every edge-router ingress call. Its digest is computed
// as replay() computes it, so the caller can require the composed run to
// reproduce the untraced outcome bit for bit.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "apps/registry.hpp"
#include "workload/replay.hpp"

namespace perfbench {

/// One timed interval. Times are ns since the start of the traced run;
/// `parent` indexes the enclosing span (-1 for a root); `tid` is the shard
/// whose worker ran it (0 for the calling thread).
struct Span {
  const char* name = "";  ///< a string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::uint32_t tid = 0;
};

struct TracedRun {
  std::uint64_t digest = 0;
  std::uint64_t packets_sent = 0;
  /// The set-up step that builds the DUT program: optimize_program and the
  /// optimized factory when the run optimizes, the registry factory if not.
  double program_s = 0;
  double run_s = 0;        ///< sum of the run_until spans
  /// Raw counts and span totals read from the layers' public counters and
  /// from the handler/edge spans; main.cpp turns them into metrics.
  std::map<std::string, double> counts;
  /// Every set-up and run_until span, plus the first handler and edge
  /// spans of each program instance (the totals in `counts` cover all).
  std::vector<Span> spans;
};

/// Compose and run `base` against `app` as replay(base, app, options)
/// would. `clock_ns` (probes.hpp clock_read_ns) is subtracted from each
/// handler and edge span so span self times exclude the clock reads.
TracedRun run_traced(const edp::workload::ScenarioSpec& base,
                     const edp::apps::RegisteredProgram& app,
                     const edp::workload::ReplayOptions& options,
                     double clock_ns);

}  // namespace perfbench
