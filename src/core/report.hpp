// Human-readable synthesis reports.
//
// Bundles everything a reviewer asks about a crossbar design — dimensions,
// labeling breakdown, optimality status, solver trace, validation verdict —
// into one markdown document. Emitted by the CLI's --report flag and used
// in EXPERIMENTS.md-style record keeping.
#pragma once

#include <ostream>
#include <string>

#include "core/compact.hpp"
#include "xbar/equivalence.hpp"

namespace compact::core {

struct report_inputs {
  std::string circuit_name;
  const synthesis_stats* stats = nullptr;                // required
  const labeling* labels = nullptr;                      // optional
  const xbar::equivalence_report* validation = nullptr;  // optional
};

/// Write a markdown report for one synthesis run.
void write_report(const report_inputs& inputs, std::ostream& os);

}  // namespace compact::core
