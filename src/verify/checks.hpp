// The check registry of the static design analyzer.
//
// A check is a pure function over the pipeline's artifacts that emits
// diagnostics; it never mutates anything and never simulates an input
// vector. Checks declare which artifacts they need and are skipped (not
// failed) when those artifacts are absent — linting a bare .xbar file runs
// the structural and equivalence checks, a full synthesis context runs all
// of them.
//
// Adding a check (see docs/static_analysis.md for the walkthrough):
//  1. pick the next free ID in the right family (LBLxxx labeling, XBRxxx
//     crossbar structure, MAPxxx mapping consistency, EQVxxx equivalence);
//  2. implement it in the matching checks_*.cpp and append a descriptor to
//     that file's local list;
//  3. add a positive + negative test in tests/verify_test.cpp and, if the
//     check guards against a plausible synthesis bug, a mutation in
//     verify/mutate.cpp that only this check catches.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "bdd/manager.hpp"
#include "core/bdd_graph.hpp"
#include "core/labeling.hpp"
#include "core/mapping.hpp"
#include "verify/criticality.hpp"
#include "verify/diagnostics.hpp"
#include "verify/electrical.hpp"
#include "xbar/crossbar.hpp"
#include "xbar/equivalence.hpp"
#include "xbar/partitioned.hpp"

namespace compact::verify {

/// Scratch slot the expensive engine-backed checks (ELC/FLT) fill when the
/// caller provides one, so the CLI and the api facade can export the full
/// engine results (criticality map, margin stats) without re-running the
/// analysis after analyze() returns.
struct analysis_cache {
  std::optional<electrical_report> electrical;
  std::optional<criticality_report> criticality;
  /// The design's equivalence against the artifacts' spec, when the caller
  /// already decided it (the API's validate pass). EQV001 and PAR003 read
  /// it instead of extracting the design a second time; left empty, they
  /// extract.
  std::optional<xbar::equivalence_report> equivalence;
};

/// Everything the analyzer may look at, all non-owning and optional except
/// the design itself. `variable_count < 0` means "infer from the spec
/// manager, falling back to the largest device variable".
struct artifacts {
  const xbar::crossbar* design = nullptr;
  /// A multi-array design (PARxxx checks). Independent of `design`: linting
  /// a partitioned artifact sets only this.
  const xbar::partitioned_design* partitioned = nullptr;
  const core::bdd_graph* graph = nullptr;
  const core::labeling* labels = nullptr;
  const core::mapping_result* mapping = nullptr;
  const bdd::manager* spec = nullptr;
  const std::vector<bdd::node_handle>* spec_roots = nullptr;
  const std::vector<std::string>* spec_names = nullptr;
  /// Opting into the ELCxxx electrical-integrity checks: non-null enables
  /// them and supplies the device corner + margin threshold.
  const electrical_options* electrical = nullptr;
  /// Opting into the FLTxxx fault-criticality checks (symbolic, same cost
  /// profile as the equivalence family — one fixpoint per junction fault).
  const criticality_options* criticality = nullptr;
  /// Optional scratch for engine results; may be null.
  analysis_cache* cache = nullptr;
  int variable_count = -1;

  /// The effective input-variable count: explicit, else the spec's, else
  /// inferred from the devices (-1 when nothing constrains it).
  [[nodiscard]] int resolve_variable_count() const;
  [[nodiscard]] bool has_labeling() const {
    return graph != nullptr && labels != nullptr;
  }
  [[nodiscard]] bool has_mapping() const {
    return has_labeling() && mapping != nullptr && design != nullptr;
  }
  [[nodiscard]] bool has_spec() const {
    return design != nullptr && spec != nullptr && spec_roots != nullptr &&
           spec_names != nullptr;
  }
  [[nodiscard]] bool has_partitioned() const { return partitioned != nullptr; }
  [[nodiscard]] bool has_partitioned_spec() const {
    return partitioned != nullptr && spec != nullptr &&
           spec_roots != nullptr && spec_names != nullptr;
  }
  /// ELC/FLT run on whichever conduction graph is present.
  [[nodiscard]] bool has_conduction_graph() const {
    return design != nullptr || partitioned != nullptr;
  }
  [[nodiscard]] bool has_electrical() const {
    return electrical != nullptr && has_conduction_graph();
  }
  [[nodiscard]] bool has_criticality() const {
    return criticality != nullptr && has_conduction_graph();
  }
};

struct check_descriptor {
  std::string id;           // stable, e.g. "LBL001"
  std::string name;         // kebab-case, e.g. "labeling-feasibility"
  std::string description;  // one-liner (SARIF rule shortDescription)
  severity default_severity = severity::error;
  // Artifact requirements; a check runs only when all it needs are present.
  bool needs_design = false;
  bool needs_labeling = false;  // graph + labels
  bool needs_mapping = false;   // graph + labels + mapping + design
  bool needs_spec = false;      // design + spec manager/roots/names
  bool needs_partitioned = false;       // partitioned design
  bool needs_partitioned_spec = false;  // partitioned + spec
  bool needs_electrical = false;   // electrical options + some design
  bool needs_criticality = false;  // criticality options + some design
  // Null for a "companion" check whose findings are emitted by a sibling's
  // pass over the same artifacts (e.g. MAP003 rides on MAP002's grid diff).
  // Companions still appear in the registry for SARIF rule metadata and are
  // marked as run alongside their family.
  std::function<void(const artifacts&, report&)> run;
};

/// All registered checks, in stable ID order. The families live in
/// checks_labeling.cpp, checks_structure.cpp, checks_mapping.cpp,
/// checks_equivalence.cpp, checks_partition.cpp, checks_electrical.cpp and
/// checks_fault.cpp.
[[nodiscard]] const std::vector<check_descriptor>& all_checks();

/// Registry lookup; throws compact::error for unknown IDs.
[[nodiscard]] const check_descriptor& find_check(const std::string& id);

// Per-family contributions (internal wiring for all_checks()).
[[nodiscard]] std::vector<check_descriptor> labeling_checks();
[[nodiscard]] std::vector<check_descriptor> structure_checks();
[[nodiscard]] std::vector<check_descriptor> mapping_checks();
[[nodiscard]] std::vector<check_descriptor> equivalence_checks();
[[nodiscard]] std::vector<check_descriptor> partition_checks();
[[nodiscard]] std::vector<check_descriptor> electrical_checks();
[[nodiscard]] std::vector<check_descriptor> fault_checks();

}  // namespace compact::verify
