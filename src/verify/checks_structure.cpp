// Crossbar-structure checks (XBRxxx): purely local properties of the
// programmed devices — no graph, labeling or spec required, so these
// run even on a bare .xbar file.
#include <span>
#include <string>
#include <vector>

#include "verify/checks.hpp"

namespace compact::verify {
namespace {

using xbar::literal_kind;

bool row_is_port(const xbar::crossbar& x, int r) {
  if (x.input_row() == r) return true;
  for (const xbar::output_port& o : x.outputs())
    if (o.row == r) return true;
  return false;
}

// XBR001 — a wordline with no devices at all can never carry flow; if it is
// not even a port it is dead area. A design whose outputs are all constant
// has no output ports and keeps only its bare input wordline: nothing flows
// because nothing is sensed, so that row is not a defect.
void check_dead_rows(const artifacts& a, report& out) {
  const xbar::crossbar& x = *a.design;
  for (int r = 0; r < x.rows(); ++r) {
    if (!x.row_devices(r).empty()) continue;
    if (x.outputs().empty() && r == x.input_row()) continue;
    const bool port = row_is_port(x, r);
    diagnostic d;
    d.check_id = "XBR001";
    d.level = port ? severity::error : severity::warning;
    d.message = port ? "row " + std::to_string(r) +
                           " is a port wordline but has no devices; its "
                           "output is constant 0"
                     : "row " + std::to_string(r) +
                           " has no devices and is not a port; it is dead "
                           "area";
    d.fix = port ? "connect row " + std::to_string(r) +
                       " or model the output as a constant"
                 : "drop row " + std::to_string(r) + " from the design";
    d.anchors = {row_entity(r)};
    out.add(std::move(d));
  }
}

// XBR002 — a bitline needs at least two junctions to conduct between two
// wordlines. Zero devices is dead area (warning); a single junction is a
// dangling memristor that can never participate in a path. A lone always-on
// bridge merely extends its wordline, so that case is advisory.
void check_dead_columns(const artifacts& a, report& out) {
  const xbar::crossbar& x = *a.design;
  for (int c = 0; c < x.columns(); ++c) {
    const std::span<const xbar::placed_device> devices = x.column_devices(c);
    if (devices.size() >= 2) continue;
    diagnostic d;
    d.check_id = "XBR002";
    d.anchors = {column_entity(c)};
    if (devices.empty()) {
      d.level = severity::warning;
      d.message =
          "column " + std::to_string(c) + " has no devices; it is dead area";
      d.fix = "drop column " + std::to_string(c) + " from the design";
    } else {
      const int row = devices.front().row;
      const bool bridge = devices.front().literal.kind == literal_kind::on;
      d.level = bridge ? severity::note : severity::warning;
      d.message = "column " + std::to_string(c) +
                  " has a single junction at row " + std::to_string(row) +
                  (bridge ? " (an always-on bridge); the bitline only "
                            "extends that wordline"
                          : "; a dangling memristor can never lie on an "
                            "input-to-output path");
      d.fix = bridge ? "" : "connect column " + std::to_string(c) +
                                " to a second wordline or remove the device";
      d.anchors.push_back(junction_entity(row, c));
    }
    out.add(std::move(d));
  }
}

// XBR003 — two always-on bridges on one nanowire permanently short two
// wordlines (or two bitlines) together. Mapped designs place exactly one
// bridge per VH row/column pair; duplicates are almost certainly a
// composition bug even when the shorted function happens to match.
void check_duplicate_bridges(const artifacts& a, report& out) {
  const xbar::crossbar& x = *a.design;
  for (int r = 0; r < x.rows(); ++r) {
    std::vector<int> bridges;
    for (const xbar::placed_device& p : x.row_devices(r))
      if (p.literal.kind == literal_kind::on) bridges.push_back(p.column);
    if (bridges.size() < 2) continue;
    diagnostic d;
    d.check_id = "XBR003";
    // Diagonal composition fans the shared input wordline out to every
    // composed block through one bridge each — an intentional short, so
    // only worth a note there. Anywhere else it is a mapping bug.
    const bool input_fanout = r == x.input_row();
    d.level = input_fanout ? severity::note : severity::warning;
    d.message = "row " + std::to_string(r) + " carries " +
                std::to_string(bridges.size()) +
                " always-on bridges; it is permanently shorted to " +
                std::to_string(bridges.size()) + " bitlines";
    if (input_fanout)
      d.message += " (expected when separate ROBDDs are composed on a "
                   "shared input wordline)";
    d.fix = input_fanout
                ? "nothing, if this design came from diagonal composition"
                : "keep one bridge per VH node; re-check the composition step";
    d.anchors = {row_entity(r)};
    for (const int c : bridges) d.anchors.push_back(junction_entity(r, c));
    out.add(std::move(d));
  }
  for (int c = 0; c < x.columns(); ++c) {
    std::vector<int> bridges;
    for (const xbar::placed_device& p : x.column_devices(c))
      if (p.literal.kind == literal_kind::on) bridges.push_back(p.row);
    if (bridges.size() < 2) continue;
    diagnostic d;
    d.check_id = "XBR003";
    d.level = severity::warning;
    d.message = "column " + std::to_string(c) + " carries " +
                std::to_string(bridges.size()) +
                " always-on bridges; it permanently shorts " +
                std::to_string(bridges.size()) + " wordlines together";
    d.fix = "keep one bridge per VH node; re-check the composition step";
    d.anchors = {column_entity(c)};
    for (const int r : bridges) d.anchors.push_back(junction_entity(r, c));
    out.add(std::move(d));
  }
}

// XBR004 — the crossbar's dimensions must equal what the labeling promises:
// R = #H + #VH, C = #V + #VH.
void check_dimensions(const artifacts& a, report& out) {
  if (a.labels->label_of.size() != a.graph->g.node_count()) return;
  if (a.graph->g.node_count() == 0) return;  // degenerate 1x0 constant design
  const core::labeling_stats stats = core::compute_stats(*a.labels);
  const xbar::crossbar& x = *a.design;
  if (x.rows() == stats.rows && x.columns() == stats.columns) return;
  diagnostic d;
  d.check_id = "XBR004";
  d.level = severity::error;
  d.message = "crossbar is " + std::to_string(x.rows()) + " x " +
              std::to_string(x.columns()) + " but the labeling dictates " +
              std::to_string(stats.rows) + " x " +
              std::to_string(stats.columns) +
              " (R = #H + #VH, C = #V + #VH)";
  d.fix = "re-map the design from this labeling";
  d.anchors = {entity{}};
  out.add(std::move(d));
}

// XBR005 — the input wordline must exist; by the paper's convention it is
// the bottom-most row (outputs top-most).
void check_input_row(const artifacts& a, report& out) {
  const xbar::crossbar& x = *a.design;
  const bool has_sensed_outputs = !x.outputs().empty();
  if (x.input_row() < 0) {
    if (!has_sensed_outputs) return;  // constants-only designs need no input
    diagnostic d;
    d.check_id = "XBR005";
    d.level = severity::error;
    d.message = "design senses " + std::to_string(x.outputs().size()) +
                " output wordline(s) but declares no input wordline";
    d.fix = "set the input row (the mapped '1' terminal)";
    d.anchors = {entity{}};
    out.add(std::move(d));
    return;
  }
  if (x.input_row() >= x.rows()) {
    diagnostic d;
    d.check_id = "XBR005";
    d.level = severity::error;
    d.message = "input row " + std::to_string(x.input_row()) +
                " is out of range for a " + std::to_string(x.rows()) +
                "-row crossbar";
    d.anchors = {row_entity(x.input_row())};
    out.add(std::move(d));
    return;
  }
  if (x.input_row() != x.rows() - 1) {
    diagnostic d;
    d.check_id = "XBR005";
    d.level = severity::note;
    d.message = "input row " + std::to_string(x.input_row()) +
                " is not the bottom-most wordline (paper convention: input "
                "at row " +
                std::to_string(x.rows() - 1) + ", outputs on top)";
    d.anchors = {row_entity(x.input_row())};
    out.add(std::move(d));
  }
}

// XBR006 — every literal device must reference a variable inside the
// declared support.
void check_device_variables(const artifacts& a, report& out) {
  const xbar::crossbar& x = *a.design;
  const int variables = a.resolve_variable_count();
  for (const xbar::placed_device& p : x.devices()) {
    const xbar::device& d = p.literal;
    if (!d.reads_variable()) continue;
    const bool negative_index = d.variable < 0;
    const bool beyond_support = variables >= 0 && d.variable >= variables;
    if (!negative_index && !beyond_support) continue;
    diagnostic diag;
    diag.check_id = "XBR006";
    diag.level = severity::error;
    diag.message =
        "junction (" + std::to_string(p.row) + ", " +
        std::to_string(p.column) + ") is programmed with variable x" +
        std::to_string(d.variable) +
        (negative_index ? ", which is not a valid variable index"
                        : ", outside the declared support of " +
                              std::to_string(variables) + " variable(s)");
    diag.fix = "program the junction with a variable in [0, " +
               std::to_string(variables < 0 ? 0 : variables) + ")";
    diag.anchors = {junction_entity(p.row, p.column),
                    variable_entity(d.variable)};
    out.add(std::move(diag));
  }
}

// XBR007 — output ports must reference in-range rows and carry unique names.
void check_output_ports(const artifacts& a, report& out) {
  const xbar::crossbar& x = *a.design;
  std::vector<std::string> seen;
  auto name_seen = [&](const std::string& name) {
    for (const std::string& s : seen)
      if (s == name) return true;
    return false;
  };
  for (const xbar::output_port& o : x.outputs()) {
    if (o.row < 0 || o.row >= x.rows()) {
      diagnostic d;
      d.check_id = "XBR007";
      d.level = severity::error;
      d.message = "output '" + o.name + "' senses row " +
                  std::to_string(o.row) + ", outside the " +
                  std::to_string(x.rows()) + "-row crossbar";
      d.anchors = {output_entity(o.name), row_entity(o.row)};
      out.add(std::move(d));
    }
    if (name_seen(o.name)) {
      diagnostic d;
      d.check_id = "XBR007";
      d.level = severity::error;
      d.message = "output name '" + o.name + "' is declared twice";
      d.fix = "give every output port a unique name";
      d.anchors = {output_entity(o.name)};
      out.add(std::move(d));
    }
    seen.push_back(o.name);
  }
  for (const auto& [name, value] : x.constant_outputs()) {
    (void)value;
    if (name_seen(name)) {
      diagnostic d;
      d.check_id = "XBR007";
      d.level = severity::error;
      d.message = "output name '" + name +
                  "' is declared both as a port and as a constant";
      d.anchors = {output_entity(name)};
      out.add(std::move(d));
    }
    seen.push_back(name);
  }
}

}  // namespace

std::vector<check_descriptor> structure_checks() {
  std::vector<check_descriptor> checks;
  check_descriptor c;

  c.id = "XBR001";
  c.name = "dead-row";
  c.description = "Every wordline should carry at least one device";
  c.default_severity = severity::warning;
  c.needs_design = true;
  c.run = check_dead_rows;
  checks.push_back(c);

  c = {};
  c.id = "XBR002";
  c.name = "dead-column";
  c.description =
      "A bitline needs two junctions to conduct; lone devices dangle";
  c.default_severity = severity::warning;
  c.needs_design = true;
  c.run = check_dead_columns;
  checks.push_back(c);

  c = {};
  c.id = "XBR003";
  c.name = "duplicate-bridge";
  c.description =
      "At most one always-on bridge per nanowire (one per VH node)";
  c.default_severity = severity::warning;
  c.needs_design = true;
  c.run = check_duplicate_bridges;
  checks.push_back(c);

  c = {};
  c.id = "XBR004";
  c.name = "dimensions-vs-labeling";
  c.description =
      "Crossbar dimensions must match the labeling (R = #H+#VH, C = #V+#VH)";
  c.default_severity = severity::error;
  c.needs_design = true;
  c.needs_labeling = true;
  c.run = check_dimensions;
  checks.push_back(c);

  c = {};
  c.id = "XBR005";
  c.name = "input-wordline";
  c.description =
      "The input wordline must exist and sit bottom-most by convention";
  c.default_severity = severity::error;
  c.needs_design = true;
  c.run = check_input_row;
  checks.push_back(c);

  c = {};
  c.id = "XBR006";
  c.name = "device-variable-range";
  c.description =
      "Literal devices must reference variables inside the declared support";
  c.default_severity = severity::error;
  c.needs_design = true;
  c.run = check_device_variables;
  checks.push_back(c);

  c = {};
  c.id = "XBR007";
  c.name = "output-ports";
  c.description = "Output ports must sense in-range rows with unique names";
  c.default_severity = severity::error;
  c.needs_design = true;
  c.run = check_output_ports;
  checks.push_back(c);

  return checks;
}

}  // namespace compact::verify
