// The traced run: in-process and serial, over the same generated inputs as
// the served run. Spans come from this file, around each call into a
// layer's public function; the program itself is not instrumented.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "plan.hpp"
#include "requests.hpp"

namespace perfbench {

struct span {
  std::string name;
  double start = 0.0;  // seconds since the traced run began
  double end = 0.0;
  int parent = -1;     // index into traced_result::spans
  int request = -1;    // op serial within the run
};

struct traced_result {
  std::vector<span> spans;
  /// Self time per layer span name (duration minus covered child time).
  std::map<std::string, double> self_seconds;
  /// Per-layer counts; nullopt marks a counter the program no longer
  /// exports.
  std::map<std::string, std::optional<double>> counts;
  double wall = 0.0;     // whole traced run
  double covered = 0.0;  // layer self time (every span but the roots)
  /// Tracing overhead: the measured cost of one empty span, open to close,
  /// times the number of spans the run recorded.
  double overhead = 0.0;
  int ops = 0;
  int design_mismatches = 0;  // traced design bytes != served bytes
};

/// Trace the ops of every w.trace_every-th session of `p` whose served
/// answer succeeded, in plan order.
[[nodiscard]] traced_result run_traced(const plan& p, const workload_config& w,
                                       const served_sessions& served);

/// Chrome trace-event JSON of the spans (chrome://tracing, Perfetto).
void write_spans(const traced_result& t, const std::string& path);

}  // namespace perfbench
