#include "verify/criticality.hpp"

#include <algorithm>

#include "bdd/manager.hpp"
#include "util/telemetry.hpp"  // json_escape
#include "util/trace.hpp"
#include "xbar/equivalence.hpp"

namespace compact::verify {
namespace {

struct sensed_ref {
  std::string name;
  int array = 0;
  int row = 0;
};

std::vector<sensed_ref> sensed_outputs(const xbar::partitioned_design& design) {
  std::vector<sensed_ref> out;
  for (int f = 0; f < design.array_count(); ++f)
    for (const xbar::output_port& port : design.fragment(f).outputs()) {
      if (port.row < 0 || port.row >= design.fragment(f).rows()) continue;
      out.push_back({port.name, f, port.row});
    }
  return out;
}

std::vector<bdd::node_handle> output_functions(
    const xbar::stitched_extraction_result& extracted,
    const std::vector<sensed_ref>& outputs) {
  std::vector<bdd::node_handle> fns;
  fns.reserve(outputs.size());
  for (const sensed_ref& o : outputs)
    fns.push_back(extracted.row_function[static_cast<std::size_t>(o.array)]
                                        [static_cast<std::size_t>(o.row)]);
  return fns;
}

criticality_report analyze(const xbar::partitioned_design& design,
                           int variable_count,
                           const criticality_options& options) {
  const trace_span span("analyze_criticality", "verify");
  criticality_report report;

  int variables = std::max(variable_count, 1);
  for (const xbar::crossbar& fragment : design.fragments())
    for (int r = 0; r < fragment.rows(); ++r)
      for (int c = 0; c < fragment.columns(); ++c)
        variables = std::max(variables, fragment.at(r, c).variable + 1);
  bdd::manager scratch(variables);

  xbar::partitioned_design work = design;
  if (work.input_array() < 0) return report;  // nothing conducts; PAR001 owns it

  const std::vector<sensed_ref> outputs = sensed_outputs(work);
  for (const sensed_ref& o : outputs) report.outputs.push_back(o.name);

  const xbar::stitched_extraction_result base =
      xbar::extract_stitched_functions(work, scratch);
  report.fixpoint_iterations += base.fixpoint_iterations;
  const std::vector<bdd::node_handle> base_fns =
      output_functions(base, outputs);
  // The per-fault extractions each end in a garbage collection; keep every
  // baseline wire function alive across all of them (the pre-filters below
  // compare against them junction by junction).
  std::vector<bdd::node_handle> protected_fns;
  for (const auto& per_fragment : base.row_function)
    protected_fns.insert(protected_fns.end(), per_fragment.begin(),
                         per_fragment.end());
  for (const auto& per_fragment : base.column_function)
    protected_fns.insert(protected_fns.end(), per_fragment.begin(),
                         per_fragment.end());
  for (const bdd::node_handle fn : protected_fns) scratch.protect(fn);

  // Re-extract with one device forced and report which outputs move.
  const auto probe = [&](int array, int row, int column,
                         const xbar::device& forced,
                         std::vector<int>& affected) {
    xbar::crossbar& fragment = work.fragment(array);
    const xbar::device original = fragment.at(row, column);
    fragment.set(row, column, forced);
    const xbar::stitched_extraction_result faulted =
        xbar::extract_stitched_functions(work, scratch);
    fragment.set(row, column, original);
    report.fixpoint_iterations += faulted.fixpoint_iterations;
    ++report.faults_analyzed;
    const std::vector<bdd::node_handle> fns =
        output_functions(faulted, outputs);
    bool flipped = false;
    for (std::size_t i = 0; i < fns.size(); ++i) {
      if (scratch.same_function(fns[i], base_fns[i])) continue;
      flipped = true;
      const int index = static_cast<int>(i);
      if (std::find(affected.begin(), affected.end(), index) ==
          affected.end())
        affected.push_back(index);
    }
    return flipped;
  };

  for (int f = 0; f < work.array_count() && !report.truncated; ++f) {
    const xbar::crossbar& fragment = work.fragment(f);
    for (int r = 0; r < fragment.rows() && !report.truncated; ++r) {
      for (int c = 0; c < fragment.columns(); ++c) {
        const xbar::device d = fragment.at(r, c);
        const bool programmed = d.kind != xbar::literal_kind::off;
        if (!programmed && !options.include_off_junctions) continue;
        const bool try_open = programmed;
        const bool try_closed = d.kind != xbar::literal_kind::on;
        if (!try_open && !try_closed) continue;

        // A partially analyzed junction would misreport its skipped fault
        // as non-critical, so stop before one that may not fit the budget.
        if (options.max_faults > 0 &&
            report.faults_analyzed + 2 > options.max_faults) {
          report.truncated = true;
          break;
        }

        junction_criticality j;
        j.array = f;
        j.row = r;
        j.column = c;
        j.kind = d.kind;
        j.variable = d.variable;

        // Stuck-open on a junction whose wires never conduct in the
        // baseline removes an edge that carried nothing: the fixpoint is
        // unchanged, no extraction needed.
        const bdd::node_handle row_fn =
            base.row_function[static_cast<std::size_t>(f)]
                             [static_cast<std::size_t>(r)];
        const bdd::node_handle col_fn =
            base.column_function[static_cast<std::size_t>(f)]
                                [static_cast<std::size_t>(c)];
        if (try_open &&
            !scratch.same_function(row_fn, scratch.constant(false)) &&
            !scratch.same_function(col_fn, scratch.constant(false)))
          j.stuck_open_critical =
              probe(f, r, c, {xbar::literal_kind::off, -1}, j.affected_outputs);
        // Stuck-closed welds the two wires; when their reachability already
        // coincides the short adds nothing.
        if (try_closed && !scratch.same_function(row_fn, col_fn))
          j.stuck_closed_critical =
              probe(f, r, c, {xbar::literal_kind::on, -1}, j.affected_outputs);

        std::sort(j.affected_outputs.begin(), j.affected_outputs.end());
        if (j.critical()) ++report.critical_count;
        report.junctions.push_back(std::move(j));
      }
    }
  }

  for (const bdd::node_handle fn : protected_fns) scratch.unprotect(fn);

  report.junction_count = static_cast<int>(report.junctions.size());
  std::stable_sort(report.junctions.begin(), report.junctions.end(),
                   [](const junction_criticality& a,
                      const junction_criticality& b) {
                     return a.affected_outputs.size() >
                            b.affected_outputs.size();
                   });
  return report;
}

std::string device_text(xbar::literal_kind kind, int variable) {
  switch (kind) {
    case xbar::literal_kind::off:
      return "off";
    case xbar::literal_kind::on:
      return "on";
    case xbar::literal_kind::positive:
    case xbar::literal_kind::negative: {
      std::string text(kind == xbar::literal_kind::negative ? "!x" : "x");
      text += std::to_string(variable);
      return text;
    }
  }
  return "?";
}

}  // namespace

criticality_report analyze_criticality(const xbar::crossbar& design,
                                       int variable_count,
                                       const criticality_options& options) {
  return analyze(xbar::wrap_single(design), variable_count, options);
}

criticality_report analyze_criticality(const xbar::partitioned_design& design,
                                       int variable_count,
                                       const criticality_options& options) {
  return analyze(design, variable_count, options);
}

void write_criticality_json(const criticality_report& report,
                            std::ostream& os) {
  os << "{\n  \"summary\": {"
     << "\"junctions\": " << report.junction_count
     << ", \"critical\": " << report.critical_count
     << ", \"faults_analyzed\": " << report.faults_analyzed
     << ", \"truncated\": " << (report.truncated ? "true" : "false")
     << ", \"fixpoint_iterations\": " << report.fixpoint_iterations
     << "},\n  \"outputs\": [";
  for (std::size_t i = 0; i < report.outputs.size(); ++i) {
    if (i != 0) os << ", ";
    os << '"' << json_escape(report.outputs[i]) << '"';
  }
  os << "],\n  \"junctions\": [";
  for (std::size_t i = 0; i < report.junctions.size(); ++i) {
    const junction_criticality& j = report.junctions[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"array\": " << j.array
       << ", \"row\": " << j.row << ", \"column\": " << j.column
       << ", \"device\": \"" << device_text(j.kind, j.variable) << '"'
       << ", \"stuck_open_critical\": "
       << (j.stuck_open_critical ? "true" : "false")
       << ", \"stuck_closed_critical\": "
       << (j.stuck_closed_critical ? "true" : "false")
       << ", \"affected_outputs\": [";
    for (std::size_t k = 0; k < j.affected_outputs.size(); ++k) {
      if (k != 0) os << ", ";
      os << j.affected_outputs[k];
    }
    os << "]}";
  }
  os << (report.junctions.empty() ? "]\n}\n" : "\n  ]\n}\n");
}

}  // namespace compact::verify
