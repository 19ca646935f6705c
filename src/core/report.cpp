#include "core/report.hpp"

#include <array>
#include <cmath>
#include <sstream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace compact::core {

void write_report(const report_inputs& inputs, std::ostream& os) {
  check(inputs.stats != nullptr, "write_report: stats are required");
  const synthesis_stats& s = *inputs.stats;

  os << "# COMPACT synthesis report";
  if (!inputs.circuit_name.empty()) os << " — " << inputs.circuit_name;
  os << "\n\n";

  os << "## Crossbar\n\n";
  os << "| metric | value |\n|---|---|\n";
  os << "| rows x columns | " << s.rows << " x " << s.columns << " |\n";
  os << "| semiperimeter S | " << s.semiperimeter << " |\n";
  os << "| max dimension D | " << s.max_dimension << " |\n";
  os << "| area | " << s.area << " |\n";
  os << "| programmed literal devices (power proxy) | " << s.power_proxy
     << " |\n";
  os << "| evaluation delay (steps) | " << s.delay_steps << " |\n\n";

  os << "## Labeling\n\n";
  os << "| metric | value |\n|---|---|\n";
  os << "| BDD graph nodes n | " << s.graph_nodes << " |\n";
  os << "| BDD graph edges | " << s.graph_edges << " |\n";
  os << "| VH labels k | " << s.vh_count << " |\n";
  if (s.graph_nodes > 0) {
    os << "| S / n | "
       << format_fixed(static_cast<double>(s.semiperimeter) /
                           static_cast<double>(s.graph_nodes),
                       3)
       << " |\n";
  }
  if (inputs.labels != nullptr && !inputs.labels->label_of.empty()) {
    std::array<int, 3> counts{0, 0, 0};
    for (vh_label label : inputs.labels->label_of)
      ++counts[static_cast<std::size_t>(label)];
    os << "| label histogram (V / H / VH) | " << counts[0] << " / "
       << counts[1] << " / " << counts[2] << " |\n";
  }
  os << "| labeling proven optimal | " << (s.optimal ? "yes" : "no")
     << " |\n";
  os << "| relative gap at termination | "
     << format_fixed(100.0 * s.relative_gap, 2) << "% |\n";
  if (s.cache_hits + s.cache_misses > 0) {
    os << "| labeling cache (hits / misses) | " << s.cache_hits << " / "
       << s.cache_misses << " |\n";
  }
  os << "\n";

  // Per-stage wall times from the pass pipeline; the total also covers
  // orchestration outside the named stages.
  os << "## Timing\n\n";
  os << "| stage | seconds |\n|---|---|\n";
  for (const stage_timing& t : s.stage_seconds)
    os << "| " << t.stage << " | " << format_fixed(t.seconds, 3) << " |\n";
  os << "| **total** | " << format_fixed(s.synthesis_seconds, 3) << " |\n\n";

  if (!s.trace.empty()) {
    os << "## Solver convergence\n\n";
    os << "| time (s) | best integer | best bound | gap % |\n|---|---|---|---|\n";
    for (const milp::mip_trace_entry& e : s.trace) {
      os << "| " << format_fixed(e.seconds, 3) << " | ";
      if (std::isfinite(e.best_integer))
        os << format_fixed(e.best_integer, 1);
      else
        os << "-";
      os << " | " << format_fixed(e.best_bound, 1) << " | "
         << format_fixed(100.0 * e.relative_gap, 2) << " |\n";
    }
    os << "\n";
  }

  if (inputs.validation != nullptr) {
    // The verdict text opens with PASS or FAIL; each later line names a
    // failing output.
    std::istringstream verdict(xbar::verdict_text(*inputs.validation));
    std::string line;
    std::getline(verdict, line);
    os << "## Validation\n\n";
    os << "- verdict: **" << line.substr(0, 4) << "**" << line.substr(4)
       << "\n";
    while (std::getline(verdict, line)) os << "- " << line << "\n";
    os << "\n";
  }
}

}  // namespace compact::core
