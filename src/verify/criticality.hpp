// Symbolic fault-criticality analysis (the FLTxxx check family's engine).
//
// For every programmed junction, decide whether a stuck-open fault (the
// device permanently blocks) or a stuck-closed fault (it permanently
// conducts) can flip any output — not by enumerating input vectors like
// xbar/faults, but symbolically: re-run the sneak-path reachability
// fixpoint (xbar/equivalence) on the faulted design inside one shared scratch
// manager and compare each output's reachability function against the
// fault-free baseline by canonical handle equality. A junction neither
// fault can expose is provably masked over all 2^n assignments.
//
// The result is the machine-readable criticality map consumed by
// `lint --criticality-json`: a per-junction single-point-of-failure ranking
// that defect-aware synthesis (ROADMAP item 5) can feed back into mapping.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "xbar/crossbar.hpp"
#include "xbar/partitioned.hpp"

namespace compact::verify {

struct criticality_options {
  /// Hard budget on analyzed faults (a junction contributes up to two);
  /// 0 = analyze every junction. When the budget ends the scan early the
  /// report is marked truncated — junctions past the cutoff are simply
  /// absent, never silently reported as non-critical.
  int max_faults = 0;
  /// Also probe stuck-closed defects at *unprogrammed* (off) crosspoints —
  /// the half-selected junctions a fabrication defect could short into a
  /// sneak path. Off by default: it multiplies the fault count by the grid
  /// area instead of the device count.
  bool include_off_junctions = false;
};

struct junction_criticality {
  int array = 0;  // fragment index (0 for single-array designs)
  int row = 0;
  int column = 0;
  xbar::literal_kind kind = xbar::literal_kind::off;
  int variable = -1;
  bool stuck_open_critical = false;
  bool stuck_closed_critical = false;
  /// Indices into criticality_report::outputs whose function changes under
  /// either fault (union, sorted).
  std::vector<int> affected_outputs;
  [[nodiscard]] bool critical() const {
    return stuck_open_critical || stuck_closed_critical;
  }
};

struct criticality_report {
  /// Sensed output names in design order (the index space of
  /// junction_criticality::affected_outputs).
  std::vector<std::string> outputs;
  /// One entry per analyzed junction, row-major per fragment. Ranked by
  /// affected-output count descending (ties broken by position) so the
  /// worst single points of failure lead the map.
  std::vector<junction_criticality> junctions;
  int junction_count = 0;   // junctions analyzed
  int critical_count = 0;   // junctions critical under either fault
  int faults_analyzed = 0;  // fixpoint re-extractions actually run
  bool truncated = false;   // max_faults budget ended the scan early
  int fixpoint_iterations = 0;  // summed over baseline + fault extractions
};

/// Analyze every junction of a single-array design. `variable_count` sizes
/// the scratch manager (pass the spec's count; device variables beyond it
/// are accommodated automatically).
[[nodiscard]] criticality_report analyze_criticality(
    const xbar::crossbar& design, int variable_count,
    const criticality_options& options = {});

/// Same scan over a partitioned design's stitched conduction graph: faults
/// are injected per fragment, observability is judged on the stitched
/// reachability functions.
[[nodiscard]] criticality_report analyze_criticality(
    const xbar::partitioned_design& design, int variable_count,
    const criticality_options& options = {});

/// The `--criticality-json` artifact: one JSON object with the summary, the
/// output name table and the ranked junction map (schema documented in
/// docs/static_analysis.md).
void write_criticality_json(const criticality_report& report,
                            std::ostream& os);

}  // namespace compact::verify
