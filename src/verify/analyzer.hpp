// Entry point of the static design analyzer: run every applicable check
// over a set of pipeline artifacts and collect the diagnostics.
#pragma once

#include <string>
#include <vector>

#include "verify/checks.hpp"
#include "verify/diagnostics.hpp"

namespace compact::core {
struct synthesis_context;
}  // namespace compact::core

namespace compact::verify {

struct analyzer_options {
  /// Run the EQVxxx symbolic-equivalence checks (the most expensive family:
  /// BDD fixpoints, over half the analyzer's time on served lint requests;
  /// the structural and electrical checks are polynomial in design size).
  bool equivalence = true;
  /// Check IDs to skip, e.g. {"XBR005"}.
  std::vector<std::string> disabled;
};

/// Run all checks whose artifact requirements `a` satisfies (minus
/// `options.disabled`) and return the combined report. Each executed check
/// is recorded via report::mark_check_run and instrumented with a trace
/// span and the `verify.checks_run` / `verify.diagnostics` metrics.
[[nodiscard]] report analyze(const artifacts& a,
                             const analyzer_options& options = {});

/// Non-owning view of a synthesis context's artifacts (graph, labels,
/// mapping, design and the spec BDD). The context must outlive the returned
/// struct.
[[nodiscard]] artifacts make_artifacts(const core::synthesis_context& ctx);

/// SARIF rule table for the full registry, for write_sarif.
[[nodiscard]] std::vector<sarif_rule> registry_rules();

}  // namespace compact::verify
