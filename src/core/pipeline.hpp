// The COMPACT synthesis flow as an explicit pass pipeline.
//
// Figure 3's staged structure is reified as data: a `pipeline` is an ordered
// list of named passes, each a function over one shared `synthesis_context`.
// synthesize() runs the shape the context's options select (core/compact):
//
//   default            build_graph -> label -> map
//   separate_robdds    synthesize_outputs -> compose
//   partition          build_graph -> partition -> fragments
//
// The fan-out passes run one nested context per output (the default shape)
// or per fragment (label -> map); a one-fragment plan labels and maps the
// context's own graph instead, so its design matches an unpartitioned run's.
// pipeline::run alone does the bookkeeping around every pass, nested ones
// included:
//
//  * per-stage observability: it times the pass, records the timing in
//    synthesis_stats::stage_seconds, opens a trace span and emits one
//    structured telemetry event into options.telemetry;
//  * resource control: it samples the ambient watchdog, sheds the caches
//    under memory pressure, and sweeps the BDD manager when the run owns it;
//  * metric publication: the BDD engine's and memtrack's counters become
//    visible at every stage boundary.
//
// The label pass dispatches through the labeler registry (core/labelers),
// so a new strategy is a registration, not an edit here, and memoizes the
// (graph, labeler, options) triple in options.cache when one is attached.
//
// Contexts are single-threaded; concurrency happens across nested contexts
// (one per output or fragment), with the caches and sink as the only shared
// and internally synchronized state.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/compact.hpp"
#include "core/mapping.hpp"
#include "core/partition.hpp"
#include "util/telemetry.hpp"

namespace compact::core {

/// Everything that flows between passes: the inputs (network or BDD roots,
/// and options), the intermediate artifacts each stage produces, and the
/// accumulating stats. Pass code reads what upstream stages wrote and fills
/// in its own slice.
struct synthesis_context {
  // Inputs (non-owning; must outlive the run).
  /// The netlist; read only by the separate_robdds shape, which builds one
  /// ROBDD per output from it.
  const frontend::network* network = nullptr;
  /// The shared BDD the default and partition shapes synthesize.
  const bdd::manager* manager = nullptr;
  const std::vector<bdd::node_handle>* roots = nullptr;
  const std::vector<std::string>* names = nullptr;
  /// Mutable alias of `manager`, set only by callers that own the manager
  /// (the network wrapper, the api facade). When set, the pipeline runs
  /// mark-and-sweep after every pass with `roots` as the live set. Leave
  /// null for caller-provided managers: a sweep would invalidate handles
  /// the caller still holds outside `roots`.
  bdd::manager* gc_manager = nullptr;
  synthesis_options options;

  // Stage artifacts.
  bdd_graph graph;                       // build_graph
  partition_plan plan;                   // partition
  labeling labels;                       // label
  bool label_optimal = false;
  double label_gap = 0.0;
  bool label_cache_hit = false;
  std::optional<mapping_result> mapped;  // map
  std::vector<xbar::crossbar> blocks;    // synthesize_outputs
  std::optional<xbar::crossbar> composed;               // compose
  std::optional<xbar::partitioned_design> partitioned;  // fragments
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

  /// The finished single-array design (mapped or composed); null for a
  /// multi-array design, which lives in `partitioned`.
  [[nodiscard]] const xbar::crossbar* design() const {
    if (composed) return &*composed;
    return mapped ? &mapped->design : nullptr;
  }
};

/// An ordered list of named passes. run() executes them in order, timing
/// each one, appending to stats.stage_seconds, and emitting one telemetry
/// event per pass. A pass may run another pipeline over the same context.
class pipeline {
 public:
  using pass_fn = std::function<void(synthesis_context&)>;

  pipeline& add_pass(std::string name, pass_fn run);

  void run(synthesis_context& ctx) const;

 private:
  struct pass {
    std::string name;
    pass_fn run;
  };
  std::vector<pass> passes_;
};

/// The one synthesis body: run the shape ctx.options selects over an
/// initialized context (inputs and options set) under the options'
/// resource watchdog. Every stage artifact stays in `ctx`; the design is
/// ctx.design() or ctx.partitioned, and ctx.stats.synthesis_seconds covers
/// the whole run. Throws compact::error when partition and separate_robdds
/// are both set, or when separate_robdds has no network.
void synthesize(synthesis_context& ctx);

}  // namespace compact::core
