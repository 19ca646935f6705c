// First-party execution of one request. service::handle(), the one-shot
// handle() and compact_cli all call these run functions, so each operation
// has exactly one implementation; callers differ only in how they present
// the result (a response_v1, or the CLI's tables and report files).
//
// NOT part of the stable facade — first-party code only.
#pragma once

#include <memory>
#include <optional>
#include <utility>

#include "api/compact_api.hpp"
#include "bdd/manager.hpp"
#include "core/pipeline.hpp"
#include "frontend/network.hpp"
#include "frontend/to_bdd.hpp"
#include "verify/checks.hpp"
#include "xbar/equivalence.hpp"

namespace compact::api {

/// Shared state injected into a run. Null members mean the core falls back
/// to its private per-call caches.
struct run_caches {
  core::labeling_cache* label = nullptr;
  core::partition_cache* partition = nullptr;
};

/// The specification a run is checked against: the parsed netlist and its
/// shared BDD in BDD-variable space (the space designs are synthesized in).
struct spec_bdd {
  explicit spec_bdd(frontend::network n)
      : net(std::move(n)), manager(net.input_count()) {}
  frontend::network net;
  bdd::manager manager;
  frontend::sbdd built;
};

/// Everything one synthesize or lint run produced, in internal types.
struct run_result {
  /// Heap-held so the pointers into it (from `pipeline` and artifacts())
  /// survive moves of the result.
  std::unique_ptr<spec_bdd> spec;
  /// The synthesis context of every synthesize run; null for design-only
  /// lint runs. The analyzer reads it through verify::make_artifacts, which
  /// shows it the default shape's graph, labels and mapping, and every
  /// other shape's design alone.
  std::unique_ptr<core::synthesis_context> pipeline;
  /// The design, in declared-input numbering.
  design mapped;
  /// Synthesis stats; stage_seconds ends with the validate / verify stages
  /// when they ran. Default-initialized for design-only lint runs.
  core::synthesis_stats stats;
  /// Symbolic validity check (synthesis.validate).
  std::optional<xbar::equivalence_report> validation;
  /// Analyzer report (synthesis.verify, and every lint run); the engine
  /// results behind the ELC / FLT families land in `analysis`.
  std::optional<verify::report> verification;
  verify::analysis_cache analysis;

  /// The analyzer's view of this run. The design is in BDD-variable space,
  /// which equals declared-input numbering unless synthesis.variable_order
  /// permuted the inputs (never the case for lint runs).
  [[nodiscard]] verify::artifacts artifacts() const;
};

/// Execute op = "synthesize": parse, build the SBDD, run the shape the
/// options select (single SBDD, separate ROBDDs, or partitioned), then the
/// shared tail — validate, analyze with request.lint's switches, remap to
/// declared-input numbering. Applies the request deadline and arms the
/// flight recorder. Throws the facade's exception hierarchy.
[[nodiscard]] run_result run_synthesize(const request_v1& request,
                                        const run_caches& caches);

/// Execute op = "lint": with design_text set, analyze that design against
/// the source; otherwise run_synthesize's run with request.lint's synthesis
/// knobs and the analysis on. Throws the facade's exception hierarchy.
[[nodiscard]] run_result run_lint(const request_v1& request,
                                  const run_caches& caches);

/// Result conversions shared by service::handle and the CLI.
[[nodiscard]] synthesis_stats_v1 to_stats(const core::synthesis_stats& s);
[[nodiscard]] check_result_v1 to_check_result(
    const xbar::equivalence_report& r);
[[nodiscard]] check_result_v1 to_check_result(const verify::report& r);

}  // namespace compact::api
