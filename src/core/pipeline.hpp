// The COMPACT synthesis flow as an explicit pass pipeline.
//
// Figure 3's staged structure is reified as data: a `pipeline` is an ordered
// list of named passes, each a function over one shared `synthesis_context`.
// The canonical pipeline is
//
//   build_graph -> label -> map
//
// and `synthesize()` (core/compact) is now just "run the canonical pipeline".
// Reifying the stages buys three things the monolithic function could not
// offer:
//
//  * pluggable labeling — the label pass dispatches through the labeler
//    registry (core/labelers), so a new strategy is a registration, not an
//    edit to compact.cpp;
//  * per-stage observability — the pipeline times every pass, records the
//    timings in synthesis_stats::stage_seconds, and emits one structured
//    telemetry event per pass into the context's sink;
//  * labeling memoization — when a labeling_cache is attached, the label
//    pass keys the (graph, labeler, options) triple and skips re-solving
//    identical subproblems (separate-ROBDD duplicate outputs, gamma-sweep
//    warm starts, repeated bench configurations).
//
// Contexts are single-threaded; concurrency happens *above* the pipeline
// (one context per work item), with the cache and sink as the only shared —
// and internally synchronized — state.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/compact.hpp"
#include "core/label_cache.hpp"
#include "core/mapping.hpp"
#include "util/telemetry.hpp"

namespace compact::core {

/// Everything that flows between passes: the inputs (BDD roots + options),
/// the intermediate artifacts each stage produces, and the accumulating
/// stats. Pass code reads what upstream stages wrote and fills in its own
/// slice.
struct synthesis_context {
  // Inputs (non-owning; must outlive the run).
  const bdd::manager* manager = nullptr;
  const std::vector<bdd::node_handle>* roots = nullptr;
  const std::vector<std::string>* names = nullptr;
  /// Mutable alias of `manager`, set only by flows that own the manager
  /// (synthesize_gc and its callers, the api facade). When set, the
  /// pipeline runs mark-and-sweep after every pass with `roots` as the live
  /// set. Leave null for caller-provided managers — a sweep would
  /// invalidate handles the caller still holds outside `roots`.
  bdd::manager* gc_manager = nullptr;
  synthesis_options options;

  // Shared services (both may be null; both are thread-safe when shared).
  telemetry_sink* telemetry = nullptr;
  labeling_cache* cache = nullptr;

  // Stage artifacts.
  bdd_graph graph;          // build_graph
  labeling labels;          // label
  bool label_optimal = false;
  double label_gap = 0.0;
  bool label_cache_hit = false;
  std::optional<mapping_result> mapped;  // map
  synthesis_stats stats;

  /// The event for the currently running pass; passes attach their metrics
  /// and attributes here. Managed by pipeline::run; null between passes.
  telemetry_event* current_event = nullptr;

  void metric(const std::string& name, double value) {
    if (current_event != nullptr) current_event->metric(name, value);
  }
  void attribute(const std::string& name, const std::string& value) {
    if (current_event != nullptr) current_event->attribute(name, value);
  }
};

/// An ordered list of named passes. run() executes them in order, timing
/// each one, appending to stats.stage_seconds, and emitting one telemetry
/// event per pass.
class pipeline {
 public:
  using pass_fn = std::function<void(synthesis_context&)>;

  pipeline& add_pass(std::string name, pass_fn run);

  [[nodiscard]] std::size_t pass_count() const { return passes_.size(); }
  [[nodiscard]] std::vector<std::string> pass_names() const;

  void run(synthesis_context& ctx) const;

 private:
  struct pass {
    std::string name;
    pass_fn run;
  };
  std::vector<pass> passes_;
};

/// The labeler registry name the label pass will dispatch to: an explicit
/// options.labeler wins, otherwise the method enum maps to "oct" / "mip".
[[nodiscard]] std::string resolve_labeler_name(const synthesis_options& options);

/// The canonical pipeline: build_graph -> label -> map.
[[nodiscard]] pipeline make_synthesis_pipeline();

/// label -> map only, for contexts whose graph is installed directly (the
/// per-fragment runs of core/partition).
[[nodiscard]] pipeline make_label_map_pipeline();

/// Run the canonical pipeline over an initialized context (inputs, options,
/// telemetry and cache set) under the options' resource watchdog. Every
/// stage artifact stays in `ctx`; ctx.stats.synthesis_seconds covers the
/// whole run.
void run_synthesis_pipeline(synthesis_context& ctx);

}  // namespace compact::core
