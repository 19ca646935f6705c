// compact::api — the stable public facade of the COMPACT library.
//
// Everything an embedding application needs lives in this one header:
// describe a Boolean function (a netlist file or inline text), synthesize a
// flow-based crossbar design, inspect / serialize / evaluate the result, and
// run the static design analyzer. The facade is deliberately narrow and
// versioned:
//
//   * plain-struct options — every knob is a value type with a default; new
//     knobs are only ever appended, so client code compiled against version
//     N keeps compiling against version N+1.
//   * an opaque `design` handle — internal representation changes never leak
//     into client builds (the header includes only the standard library).
//   * COMPACT_API_VERSION / api_version() — the macro is the version this
//     header was shipped with, the function is the version the linked
//     library implements; compare them to catch header/library skew.
//
// The internal subsystem headers (core/, xbar/, milp/, ...) remain available
// but are *transitional* for external consumers: they may change between
// versions without notice (see DESIGN.md). New integrations should include
// only this header and link compact::all.
//
// Quickstart (every operation is a request):
//
//   compact::api::request_v1 req;
//   req.id = "r1";
//   req.op = "synthesize";
//   req.source.text = "...BLIF text...";       // or req.source.path = "..."
//   req.synthesis.labeler = "mip";
//   req.synthesis.gamma = 0.5;
//   const compact::api::response_v1 resp = compact::api::handle(req);
//   if (resp.ok) std::cout << resp.design_text;
//   else std::cerr << compact::api::error_code_name(resp.code) << ": "
//                  << resp.error_message << "\n";
//
// Long-running embedders (compact-serve, sweep harnesses) construct one
// `service` and call service::handle() from any number of threads: requests
// then share the process-wide labeling/partition caches with bounded memory.
// The request/response pair serializes to JSON-lines (to_json /
// request_from_json / response_from_json) — the same schema the daemon
// speaks on its socket.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

/// Version of the facade this header describes. Bumped whenever a public
/// struct gains a field or a function changes meaning; see api_version().
/// Version 2 added partitioned (multi-array) synthesis: the `partition`
/// option, the multi-array fields of synthesis_stats_v1, and
/// design::array_count().
/// Version 3 added resource budgets and failure observability: the
/// `memory_limit_bytes` / `deadline_seconds` / `flight_record_path` options
/// and the resource_limit_error exception.
/// Version 4 added electrical & fault-criticality static analysis: the
/// `electrical` / `margin_threshold` / `criticality` / `criticality_limit`
/// lint options and the margin / criticality lint summary fields.
/// Version 5 redesigned the entry points around request_v1 / response_v1
/// (op = synthesize | lint | evaluate, structured error_code_v1 taxonomy,
/// JSON-lines serialization), added the `service` handle with shared
/// bounded-memory caches, and deprecated the loose synthesize()/lint()
/// functions in favor of thin shims over handle().
/// Version 6 removed those shims together with synthesis_outcome and
/// lint_outcome: handle() / service::handle() are the only entry points.
/// request_v1::lint's analyzer switches now also configure
/// synthesis_options_v1::verify, and "staircase" (the prior-work baseline)
/// joined the built-in labelers.
#define COMPACT_API_VERSION 6

namespace compact::api {

/// Facade version implemented by the linked library. A mismatch with
/// COMPACT_API_VERSION means the header and the library come from different
/// checkouts.
[[nodiscard]] int api_version();

// ---------------------------------------------------------------------------
// Errors

/// Base class of every exception the facade throws.
class error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A netlist or design could not be read or parsed.
class parse_error : public error {
 public:
  using error::error;
};

/// The requested constraints (row/column budgets) admit no design.
class infeasible_error : public error {
 public:
  using error::error;
};

/// A resource budget (synthesis_options_v1::memory_limit_bytes or
/// deadline_seconds) was exceeded. The run fails with a structured error
/// instead of letting the process OOM or silently overrun its deadline;
/// limit_kind() names the budget that tripped.
class resource_limit_error : public error {
 public:
  enum class kind { memory, deadline };
  resource_limit_error(kind which, const std::string& message)
      : error(message), kind_(which) {}
  [[nodiscard]] kind limit_kind() const { return kind_; }
  /// "memory" or "deadline" — stable strings for logs and exit paths.
  [[nodiscard]] const char* kind_name() const {
    return kind_ == kind::memory ? "memory" : "deadline";
  }

 private:
  kind kind_;
};

// ---------------------------------------------------------------------------
// Inputs

/// A Boolean-function specification. Exactly one of `path` / `text` must be
/// set. Formats: "blif", "pla", "verilog"; empty means infer from the path
/// extension (.blif / .pla / .v / .verilog), or "blif" for inline text.
struct netlist_source {
  std::string path;
  std::string text;
  std::string format;
};

/// Synthesis knobs, version 1. Plain values only; the defaults reproduce the
/// paper's headline configuration (weighted MIP, gamma = 0.5).
struct synthesis_options_v1 {
  /// Labeling strategy: "oct" (Method 1, minimal semiperimeter), "mip"
  /// (Method 2, weighted objective), "staircase" (the prior-work baseline:
  /// every node on a wordline and a bitline), or any name registered with
  /// the labeler registry.
  std::string labeler = "mip";
  /// Weight of the semiperimeter vs. the max dimension in Method 2's
  /// objective gamma*S + (1-gamma)*D. Must lie in [0, 1].
  double gamma = 0.5;
  /// Run the alignment post-pass after labeling.
  bool alignment = true;
  /// Wall-clock budget for the labeling solver, in seconds.
  double time_limit_seconds = 60.0;
  /// Worker threads for the parallel stages (solver branch-and-bound,
  /// per-output fan-out, validation). Results are bit-identical for any
  /// value; 1 is fully serial.
  int threads = 1;
  /// Hard crossbar budgets; 0 = unbounded. Every labeler honors them: the
  /// "mip" labeler enforces them inside the solver, and the map stage
  /// re-checks the mapped design for all labelers — the request fails with
  /// error_code_v1::infeasible naming the overflow dimension when no design
  /// fits (unless `partition` below is set).
  int max_rows = 0;
  int max_columns = 0;
  /// Split designs that exceed the budgets across multiple crossbar arrays
  /// joined by bridge connections instead of failing. The response's design
  /// then reports array_count() > 1 and serializes in the multi-array
  /// `xbar 2` format; without budgets (or when one array suffices) the
  /// design is identical to an unpartitioned run's. Incompatible with
  /// separate_robdds.
  bool partition = false;
  /// Map one ROBDD per output and compose along the diagonal (the prior
  /// multi-output strategy) instead of one shared SBDD.
  bool separate_robdds = false;
  /// Two-level minimize the network before building BDDs.
  bool minimize_network = false;
  /// BDD variable-order effort: "none", "sift", or "exhaustive". Ignored
  /// (forced to "none") when separate_robdds is set.
  std::string variable_order = "none";
  /// Kernelize OCT instances (strip bipartite components, eliminate
  /// degree-<=2 vertices) before the exact solvers run. Lossless; disable
  /// only to A/B the reductions.
  bool kernelize = true;
  /// Check the design against the source BDDs symbolically (exact over
  /// every assignment) and record the verdict in response_v1::validation.
  bool validate = false;
  /// Run the static analyzer over the design and record its verdict in
  /// response_v1::verification / diagnostics. The analyzer switches
  /// (equivalence, electrical, criticality) come from request_v1::lint.
  bool verify = false;
  /// When non-empty, write per-stage telemetry as JSON lines to this path.
  std::string trace_json_path;
  /// Hard byte budget for the run's accounted memory (the BDD arena and
  /// tables, labeling/partition caches, solver pools); 0 = unlimited. The
  /// watchdog samples at stage/round boundaries, sheds caches past ~85% of
  /// the budget, and throws resource_limit_error (kind memory) on a breach.
  /// Observation only: the synthesized design is bit-identical with or
  /// without a (non-tripping) budget. Appended in version 3.
  std::uint64_t memory_limit_bytes = 0;
  /// Hard wall-clock budget for the whole run, in seconds; 0 = unlimited.
  /// Unlike time_limit_seconds (a solver effort knob that degrades to the
  /// best incumbent), hitting the deadline aborts the run with
  /// resource_limit_error (kind deadline). Appended in version 3.
  double deadline_seconds = 0.0;
  /// When non-empty, enable the failure flight recorder and, if synthesis
  /// fails, write a postmortem JSON artifact (recent events, memory
  /// accounts, metrics, active spans) to this path. Appended in version 3.
  std::string flight_record_path;
};

// ---------------------------------------------------------------------------
// The design handle

/// A synthesized crossbar design. Opaque value type: copyable, movable,
/// serializable; the memristor-level representation stays internal.
class design {
 public:
  design();
  design(const design& other);
  design(design&& other) noexcept;
  design& operator=(const design& other);
  design& operator=(design&& other) noexcept;
  ~design();

  /// Crossbar dimensions (wordlines x bitlines). For a multi-array design
  /// these are the largest fragment's dimensions.
  [[nodiscard]] int rows() const;
  [[nodiscard]] int columns() const;
  /// Number of crossbar arrays (1 for a single-array design).
  [[nodiscard]] int array_count() const;
  /// Output names in evaluation order (function outputs, then constants).
  [[nodiscard]] std::vector<std::string> output_names() const;

  /// Serialize to the textual `.xbar` format (round-trips via from_text).
  /// Single-array designs write format version 1; multi-array designs write
  /// the `xbar 2` multi-array format.
  [[nodiscard]] std::string to_text() const;
  /// Parse a `.xbar` document (format version 1 or 2); throws parse_error
  /// on malformed input.
  [[nodiscard]] static design from_text(const std::string& text);
  /// Human-readable grid rendering (for terminals and logs).
  [[nodiscard]] std::string render() const;

  /// Program every device from `assignment` (declared-input order) and sense
  /// all outputs, in output_names() order.
  [[nodiscard]] std::vector<bool> evaluate(
      const std::vector<bool>& assignment) const;
  /// Single output by name.
  [[nodiscard]] bool evaluate_output(const std::vector<bool>& assignment,
                                     const std::string& output_name) const;

  /// Internal bridge for first-party tools (the CLI); NOT part of the
  /// stable facade — its layout may change between versions.
  struct impl;
  [[nodiscard]] const impl& internals() const { return *impl_; }
  [[nodiscard]] impl& internals() { return *impl_; }

 private:
  std::unique_ptr<impl> impl_;
};

// ---------------------------------------------------------------------------
// Results

/// Size and quality measures of a synthesized design (Table 4 columns).
struct synthesis_stats_v1 {
  std::size_t graph_nodes = 0;  // n: BDD nodes after 0-terminal removal
  int vh_count = 0;             // k: nodes labeled VH
  int rows = 0;
  int columns = 0;
  int semiperimeter = 0;        // S = n + k
  int max_dimension = 0;        // D = max(rows, columns)
  long long area = 0;
  int power_proxy = 0;          // active (literal-carrying) memristors
  int delay_steps = 0;          // rows + 1
  bool optimal = false;         // labeling proven optimal within the budget
  double relative_gap = 0.0;    // solver gap at termination
  double synthesis_seconds = 0.0;
  /// Multi-array accounting (1 / 0 / 0 / semiperimeter for single-array
  /// designs). For partitioned designs rows/columns above are the largest
  /// fragment's and total_semiperimeter sums every fragment's.
  int arrays = 1;
  int cut_edges = 0;           // SBDD edges crossing fragment boundaries
  int bridge_connections = 0;  // inter-array net welds
  int total_semiperimeter = 0;
};

/// Verdict of an optional post-synthesis check.
struct check_result_v1 {
  bool ran = false;
  bool passed = false;
  std::string detail;  // failure description / summary counts
};

/// One analyzer finding.
struct diagnostic_v1 {
  std::string check;     // registry ID, e.g. "XBR003"
  std::string severity;  // "note" | "warning" | "error"
  std::string message;
  std::string fix;       // suggested remedy; may be empty
  /// Human-readable locations (devices, nodes, outputs) the finding anchors
  /// to; may be empty.
  std::vector<std::string> anchors;
};

// ---------------------------------------------------------------------------
// Lint

/// Analyzer knobs. A lint request reads all of them; a synthesize request
/// with synthesis_options_v1::verify set reads the analyzer switches
/// (equivalence, electrical, criticality and their parameters).
struct lint_options_v1 {
  /// Synthesis knobs used when linting a netlist (the full pipeline runs so
  /// labeling / mapping / equivalence checks all apply).
  std::string labeler = "mip";
  double gamma = 0.5;
  double time_limit_seconds = 60.0;
  int threads = 1;
  /// Run the symbolic-equivalence check family (the expensive one).
  bool equivalence = true;
  /// Run the ELCxxx electrical-integrity family: static worst-case ON-path
  /// vs. best-case sneak-path resistance bounds over the conduction graph,
  /// flagging outputs whose sensing margin falls below margin_threshold.
  /// Appended in version 4.
  bool electrical = false;
  /// Minimum acceptable static margin ratio (best-case OFF resistance over
  /// worst-case ON resistance) before ELC001 fires. Ratios below 1.0
  /// escalate to errors. Only read when `electrical` is set. Appended in
  /// version 4.
  double margin_threshold = 10.0;
  /// Run the FLTxxx fault-criticality family: decide symbolically, per
  /// junction, whether a stuck-open / stuck-closed defect can flip any
  /// output. Requires `equivalence` (the family shares its cost class).
  /// Appended in version 4.
  bool criticality = false;
  /// Cap on analyzed faults for the criticality family; 0 = exhaustive.
  /// Truncated runs are reported as such, never silently. Appended in
  /// version 4.
  int criticality_limit = 0;
};

// ---------------------------------------------------------------------------
// Requests and responses
//
// Every operation the library offers is expressible as one request_v1 value:
// the CLI, the compact-serve daemon, and out-of-tree embedders all speak
// this schema, in-process (handle / service::handle) or as JSON-lines over a
// pipe or socket (to_json / request_from_json). Responses never throw —
// failures come back as a structured error code plus a human-readable
// message, so a batch of thousands of requests degrades per-request instead
// of aborting the batch.

/// Structured failure taxonomy. Stable wire names via error_code_name().
enum class error_code_v1 {
  none = 0,          ///< success
  invalid_request,   ///< malformed request: bad op, bad option value, ...
  parse,             ///< netlist / design text could not be parsed
  infeasible,        ///< budgets admit no design
  resource_limit,    ///< memory budget exceeded (watchdog)
  deadline_exceeded, ///< deadline passed (watchdog abort or queue shed)
  overload,          ///< admission control rejected the request (queue full)
  version_mismatch,  ///< request_v1::api_version != the library's version
  internal,          ///< unexpected library failure
};

/// Stable lowercase wire name ("none", "invalid_request", ...).
[[nodiscard]] const char* error_code_name(error_code_v1 code);
/// Inverse of error_code_name; nullopt for unknown names.
[[nodiscard]] std::optional<error_code_v1> parse_error_code(
    const std::string& name);

/// One unit of work. `op` selects the operation:
///   * "synthesize" — `source` + `synthesis`; the response carries the
///     serialized design, stats, and any validation/verification verdicts.
///   * "lint"       — `source` + `lint` (+ optional `design_text` to check
///     an existing design against the netlist).
///   * "evaluate"   — `design_text` + `assignment`; the response carries the
///     sensed output bits.
struct request_v1 {
  /// Client-chosen correlation id, echoed verbatim in the response.
  std::string id;
  std::string op = "synthesize";
  /// When non-zero, the service rejects the request (version_mismatch)
  /// unless it equals the library's api_version(). Set it to
  /// COMPACT_API_VERSION to assert header/library/schema agreement across
  /// the wire; 0 skips the check.
  int api_version = 0;
  /// Netlist input for synthesize / lint.
  netlist_source source;
  /// A serialized `.xbar` document: the design to evaluate, or the design to
  /// lint against `source`.
  std::string design_text;
  /// Evaluate: one '0'/'1' per declared input, in declaration order.
  std::string assignment;
  synthesis_options_v1 synthesis;
  lint_options_v1 lint;
  /// Severity floor for response_v1::lint_clean ("note" | "warning" |
  /// "error").
  std::string fail_on = "warning";
  /// End-to-end deadline in seconds; 0 = none. Caps the solver effort knob
  /// (time_limit_seconds) and arms the run-abort watchdog
  /// (synthesis_options_v1::deadline_seconds); under a server it is also the
  /// shedding budget — a request whose queue wait alone exceeds it is
  /// answered with deadline_exceeded without running.
  double deadline_seconds = 0.0;
};

/// The answer to one request. `ok` is true exactly when `code` is none;
/// sections irrelevant to the op keep their defaults (has_stats / lint_ran
/// gate the meaningful ones).
struct response_v1 {
  std::string id;
  bool ok = false;
  error_code_v1 code = error_code_v1::internal;
  std::string error_message;
  /// Synthesize: the mapped design in `.xbar` text form (design::from_text
  /// parses it back into a handle).
  std::string design_text;
  bool has_stats = false;
  synthesis_stats_v1 stats;
  check_result_v1 validation;
  check_result_v1 verification;
  std::vector<diagnostic_v1> diagnostics;
  /// Lint summary (when lint_ran): the verdict against request_v1::fail_on,
  /// diagnostic counts, and the electrical / criticality engine summaries
  /// (meaningful when electrical_ran / criticality_ran). The electrical
  /// summary is the smallest static margin ratio across sensed outputs and
  /// whether every output met the threshold; `critical_junctions` counts
  /// single-point-of-failure devices and `criticality_truncated` reports a
  /// fault budget that cut the sweep short.
  bool lint_ran = false;
  bool lint_clean = false;
  std::uint64_t lint_errors = 0;
  std::uint64_t lint_warnings = 0;
  std::uint64_t lint_notes = 0;
  bool electrical_ran = false;
  bool electrically_safe = false;
  double min_margin_ratio = 0.0;
  bool criticality_ran = false;
  int junctions_analyzed = 0;
  int critical_junctions = 0;
  bool criticality_truncated = false;
  /// Evaluate: one '0'/'1' per output, aligned with output_names.
  std::string outputs;
  std::vector<std::string> output_names;
  /// Wall seconds spent executing the request (excludes queueing).
  double service_seconds = 0.0;
  /// Wall seconds spent queued before execution (0 outside a server).
  double queue_seconds = 0.0;
};

/// Serialize to one single-line JSON object (no trailing newline) — the
/// JSON-lines wire format of compact-serve. All option fields are written
/// explicitly, so a logged line fully reproduces the run.
[[nodiscard]] std::string to_json(const request_v1& request);
[[nodiscard]] std::string to_json(const response_v1& response);

/// Parse one JSON request line. Strict: unknown fields, wrong types, and
/// malformed JSON throw parse_error (a server answers that with code
/// `parse` rather than guessing).
[[nodiscard]] request_v1 request_from_json(const std::string& text);
/// Parse one JSON response line. Lenient: unknown fields are ignored, so a
/// client keeps working against servers that append response fields.
[[nodiscard]] response_v1 response_from_json(const std::string& text);

/// Cache counters exposed through service_stats_v1.
struct cache_stats_v1 {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t entries = 0;
  std::uint64_t evictions = 0;
  std::uint64_t content_bytes = 0;
};

struct service_options_v1 {
  /// Share one labeling / partition-plan cache across every request the
  /// service handles (identical subproblems across requests then hit
  /// instead of recomputing). Designs are byte-identical either way.
  bool share_label_cache = true;
  bool share_partition_cache = true;
  /// Combined byte budget for the shared caches (split evenly across the
  /// enabled ones); 0 = unbounded. Exceeding it evicts least-recently-used
  /// entries — see cache_stats_v1::evictions.
  std::uint64_t cache_memory_limit_bytes = 0;
};

struct service_stats_v1 {
  std::uint64_t requests = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;
  /// Successful synthesize requests (the designs/sec numerator).
  std::uint64_t designs = 0;
  cache_stats_v1 label_cache;
  cache_stats_v1 partition_cache;
};

/// A long-lived request executor: one per process. Thread-safe — handle()
/// may be called concurrently from any number of threads; requests share
/// the service's bounded-memory labeling/partition caches. Results are
/// bit-identical to one-shot handle() calls.
class service {
 public:
  explicit service(const service_options_v1& options = {});
  ~service();
  service(const service&) = delete;
  service& operator=(const service&) = delete;

  /// Execute one request. Never throws the facade's exceptions: every
  /// failure is a response with ok = false and a structured code.
  [[nodiscard]] response_v1 handle(const request_v1& request);

  [[nodiscard]] service_stats_v1 stats() const;
  /// Drop every shared cache entry (counters reset too).
  void clear_caches();

 private:
  struct impl;
  std::unique_ptr<impl> impl_;
};

/// One-shot convenience: execute `request` with private (per-call) caches.
/// Equivalent to constructing a throwaway service and handling one request.
[[nodiscard]] response_v1 handle(const request_v1& request);

}  // namespace compact::api
