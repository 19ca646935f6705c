// Structured per-stage telemetry for the synthesis pipeline.
//
// Every pipeline stage (core/pipeline) and solver milestone emits one
// telemetry_event into a pluggable sink. Sinks must be thread-safe: the
// separate-ROBDD flow and the benchmark harnesses emit from pool workers
// concurrently. Two sinks ship with the library:
//
//   * json_lines_sink — one JSON object per line (JSON-lines), the format
//     behind `compact_cli synthesize --trace-json FILE`;
//   * memory_sink — records events in memory for tests and for harnesses
//     that aggregate counters after a run.
#pragma once

#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace compact {

/// One pipeline stage execution or solver milestone.
struct telemetry_event {
  std::string stage;     // e.g. "build_graph", "label", "map", "mip_trace"
  double seconds = 0.0;  // wall time of the stage (0 for point events)
  /// Emission order across pool workers: microseconds on the process-wide
  /// monotonic clock (util/trace) and the emitting thread's dense slot id.
  /// -1 = unstamped; stamp() fills both, and json_lines_sink stamps any
  /// event that arrives unstamped so JSON-lines traces are always
  /// cross-thread orderable.
  std::int64_t timestamp_us = -1;
  int thread_id = -1;
  /// Numeric observations (node counts, dimensions, solver bounds, ...).
  std::vector<std::pair<std::string, double>> metrics;
  /// Categorical observations (labeler name, cache hit/miss, ...).
  std::vector<std::pair<std::string, std::string>> attributes;

  void metric(std::string name, double value) {
    metrics.emplace_back(std::move(name), value);
  }
  void attribute(std::string name, std::string value) {
    attributes.emplace_back(std::move(name), std::move(value));
  }

  /// Record the current monotonic time and calling thread id.
  void stamp();

  /// First metric with `name`, or `fallback` when absent.
  [[nodiscard]] double metric_or(const std::string& name,
                                 double fallback) const;
  /// First attribute with `name`, or an empty string when absent.
  [[nodiscard]] std::string attribute_or(const std::string& name,
                                         std::string fallback = {}) const;
};

/// Destination for telemetry events. Implementations must tolerate emit()
/// being called concurrently from multiple threads.
class telemetry_sink {
 public:
  virtual ~telemetry_sink() = default;
  virtual void emit(const telemetry_event& event) = 0;
};

/// Writes one JSON object per event to an ostream (JSON-lines). Keys:
/// "stage", "seconds", "ts_us", "tid", then every metric (number or null
/// when non-finite) and attribute (string). Unstamped events are stamped at
/// emission time. Every line is flushed so a truncated run (crash,
/// std::exit) still leaves only whole, parseable lines behind. Emission is
/// serialized by an internal mutex.
class json_lines_sink final : public telemetry_sink {
 public:
  explicit json_lines_sink(std::ostream& os) : os_(os) {}
  void emit(const telemetry_event& event) override;

 private:
  std::mutex mutex_;
  std::ostream& os_;
};

/// Collects events in memory; events() returns a snapshot copy.
class memory_sink final : public telemetry_sink {
 public:
  void emit(const telemetry_event& event) override;
  [[nodiscard]] std::vector<telemetry_event> events() const;
  /// Number of recorded events whose stage equals `stage`.
  [[nodiscard]] std::size_t count(const std::string& stage) const;

 private:
  mutable std::mutex mutex_;
  std::vector<telemetry_event> events_;
};

/// Escape `text` for inclusion inside a double-quoted JSON string
/// (json::append_escaped into a new string).
[[nodiscard]] std::string json_escape(const std::string& text);

/// Render a double as a JSON number (json::append_number into a new string:
/// "null" when non-finite; integral values print without a fraction).
[[nodiscard]] std::string json_number(double value);

/// Render one event as a single-line JSON object (no trailing newline).
[[nodiscard]] std::string to_json_line(const telemetry_event& event);

}  // namespace compact
