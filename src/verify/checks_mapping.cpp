// Mapping-consistency checks (MAPxxx): the crossbar must be exactly what
// the (graph, labeling, mapping) triple dictates — every node on its
// assigned nanowires, every edge's memristor programmed with its literal,
// every VH node bridged. These are the checks that catch silent corruption
// between the mapper and the final artifact (and the mutation harness's
// literal-flip / bridge-drop / device-drop seeds).
#include <algorithm>
#include <climits>
#include <string>
#include <utility>
#include <vector>

#include "verify/checks.hpp"

namespace compact::verify {
namespace {

using core::vh_label;
using xbar::literal_kind;

std::string literal_text(const xbar::device& d) {
  switch (d.kind) {
    case literal_kind::off:
      return "off";
    case literal_kind::on:
      return "on";
    case literal_kind::positive:
      return "+x" + std::to_string(d.variable);
    case literal_kind::negative:
      return "-x" + std::to_string(d.variable);
  }
  return "?";
}

bool consistent_sizes(const artifacts& a) {
  const std::size_t n = a.graph->g.node_count();
  return a.labels->label_of.size() == n && a.mapping->row_of.size() == n &&
         a.mapping->column_of.size() == n;
}

// MAP001 — node assignment: wordline/bitline indices must exist exactly for
// the labels that demand them, stay in range, never collide, and the ports
// (input row, output rows) must land where the graph says.
void check_assignment(const artifacts& a, report& out) {
  if (!consistent_sizes(a)) {
    diagnostic d;
    d.check_id = "MAP001";
    d.level = severity::error;
    d.message = "mapping arrays are not parallel to the graph (" +
                std::to_string(a.mapping->row_of.size()) + " rows / " +
                std::to_string(a.mapping->column_of.size()) +
                " columns assigned for " +
                std::to_string(a.graph->g.node_count()) + " nodes)";
    d.anchors = {entity{}};
    out.add(std::move(d));
    return;
  }
  const core::mapping_result& map = *a.mapping;
  const xbar::crossbar& x = *a.design;
  const auto n = static_cast<graph::node_id>(a.graph->g.node_count());

  std::vector<int> row_owner(static_cast<std::size_t>(x.rows()), -1);
  std::vector<int> column_owner(static_cast<std::size_t>(x.columns()), -1);
  for (graph::node_id v = 0; v < n; ++v) {
    const int row = map.row_of[static_cast<std::size_t>(v)];
    const int column = map.column_of[static_cast<std::size_t>(v)];
    const bool wants_row = a.labels->has_row(v);
    const bool wants_column = a.labels->has_column(v);

    auto emit = [&](std::string message, std::string fix) {
      diagnostic d;
      d.check_id = "MAP001";
      d.level = severity::error;
      d.message = std::move(message);
      d.fix = std::move(fix);
      d.anchors = {node_entity(v)};
      out.add(std::move(d));
    };

    if (wants_row != (row >= 0))
      emit("node " + std::to_string(v) +
               (wants_row ? " is wordline-labeled but has no assigned row"
                          : " is V-labeled but is assigned row " +
                                std::to_string(row)),
           "node " + std::to_string(v) +
               " must be assigned a wordline exactly when labeled H or VH");
    if (wants_column != (column >= 0))
      emit("node " + std::to_string(v) +
               (wants_column
                    ? " is bitline-labeled but has no assigned column"
                    : " is H-labeled but is assigned column " +
                          std::to_string(column)),
           "node " + std::to_string(v) +
               " must be assigned a bitline exactly when labeled V or VH");
    if (row >= x.rows())
      emit("node " + std::to_string(v) + " is assigned row " +
               std::to_string(row) + ", outside the " +
               std::to_string(x.rows()) + "-row crossbar",
           {});
    else if (row >= 0) {
      if (row_owner[static_cast<std::size_t>(row)] >= 0)
        emit("nodes " +
                 std::to_string(row_owner[static_cast<std::size_t>(row)]) +
                 " and " + std::to_string(v) + " share row " +
                 std::to_string(row),
             {});
      row_owner[static_cast<std::size_t>(row)] = v;
    }
    if (column >= x.columns())
      emit("node " + std::to_string(v) + " is assigned column " +
               std::to_string(column) + ", outside the " +
               std::to_string(x.columns()) + "-column crossbar",
           {});
    else if (column >= 0) {
      if (column_owner[static_cast<std::size_t>(column)] >= 0)
        emit("nodes " +
                 std::to_string(
                     column_owner[static_cast<std::size_t>(column)]) +
                 " and " + std::to_string(v) + " share column " +
                 std::to_string(column),
             {});
      column_owner[static_cast<std::size_t>(column)] = v;
    }
  }

  // Ports: the terminal drives the input row, each output binding senses
  // its node's row under its name.
  if (a.graph->terminal_node >= 0) {
    const int terminal_row =
        map.row_of[static_cast<std::size_t>(a.graph->terminal_node)];
    if (terminal_row != x.input_row()) {
      diagnostic d;
      d.check_id = "MAP001";
      d.level = severity::error;
      d.message = "the '1' terminal (node " +
                  std::to_string(a.graph->terminal_node) + ") maps to row " +
                  std::to_string(terminal_row) +
                  " but the input wordline is row " +
                  std::to_string(x.input_row());
      d.anchors = {node_entity(a.graph->terminal_node),
                   row_entity(x.input_row())};
      out.add(std::move(d));
    }
  }
  for (const core::bdd_graph::output_binding& o : a.graph->outputs) {
    const int want_row = map.row_of[static_cast<std::size_t>(o.node)];
    bool found = false;
    for (const xbar::output_port& port : x.outputs())
      if (port.name == o.name && port.row == want_row) found = true;
    if (found) continue;
    diagnostic d;
    d.check_id = "MAP001";
    d.level = severity::error;
    d.message = "output '" + o.name + "' should sense row " +
                std::to_string(want_row) + " (node " +
                std::to_string(o.node) + ") but no such port exists";
    d.fix = "re-bind the output ports from the graph's output nodes";
    d.anchors = {output_entity(o.name), node_entity(o.node)};
    out.add(std::move(d));
  }
}

// MAP002/MAP003 — junction programming: rebuild the devices that (graph,
// labeling, mapping) dictate and merge them, junction by junction in
// row-major order, with the design's. Literal mismatches report as MAP002,
// missing/extra VH bridges as MAP003.
void check_junctions(const artifacts& a, report& out) {
  if (!consistent_sizes(a)) return;  // MAP001 reports the size mismatch
  const core::mapping_result& map = *a.mapping;
  const xbar::crossbar& x = *a.design;
  const auto n = static_cast<graph::node_id>(a.graph->g.node_count());

  // Out-of-range assignments make the expected devices unplaceable; MAP001
  // owns those findings.
  for (graph::node_id v = 0; v < n; ++v)
    if (map.row_of[static_cast<std::size_t>(v)] >= x.rows() ||
        map.column_of[static_cast<std::size_t>(v)] >= x.columns())
      return;

  // The devices the triple dictates, rebuilt here and not by the mapper's
  // code, so that a placement bug there shows as a finding: a bridge per VH
  // node, then a literal per edge, a later device on a junction replacing
  // an earlier one. A device without both wires is MAP001's or LBL001's.
  std::vector<xbar::placed_device> wanted;
  std::vector<std::pair<int, int>> bridges;
  const auto want = [&](graph::node_id on_row, graph::node_id on_column,
                        xbar::device d) {
    const int r = map.row_of[static_cast<std::size_t>(on_row)];
    const int c = map.column_of[static_cast<std::size_t>(on_column)];
    if (r < 0 || c < 0) return;
    wanted.push_back({r, c, d});
    if (d.kind == literal_kind::on) bridges.emplace_back(r, c);
  };
  for (graph::node_id v = 0; v < n; ++v)
    if (a.labels->label_of[static_cast<std::size_t>(v)] == vh_label::vh)
      want(v, v, {literal_kind::on, -1});
  const std::vector<graph::edge>& edges = a.graph->g.edges();
  for (std::size_t e = 0; e < edges.size(); ++e) {
    const auto [u, v] = edges[e];
    const core::edge_literal lit = a.graph->literal_of_edge[e];
    const xbar::device d{
        lit.positive ? literal_kind::positive : literal_kind::negative,
        lit.variable};
    if (a.labels->has_row(u) && a.labels->has_column(v))
      want(u, v, d);
    else if (a.labels->has_row(v) && a.labels->has_column(u))
      want(v, u, d);
  }
  std::sort(bridges.begin(), bridges.end());
  const xbar::crossbar expected(xbar::crossbar(x.rows(), x.columns()),
                                std::move(wanted));

  // Merge the two row-major device lists: every junction either programs.
  static constexpr xbar::device off{};
  const std::vector<xbar::placed_device>& want_list = expected.devices();
  const std::vector<xbar::placed_device>& got_list = x.devices();
  for (std::size_t i = 0, j = 0;
       i < want_list.size() || j < got_list.size();) {
    const std::pair<int, int> past_end(INT_MAX, INT_MAX);
    const auto w = i < want_list.size() ? want_list[i].junction() : past_end;
    const auto g = j < got_list.size() ? got_list[j].junction() : past_end;
    const auto [r, c] = std::min(w, g);
    const xbar::device& want = w <= g ? want_list[i++].literal : off;
    const xbar::device& got = g <= w ? got_list[j++].literal : off;
    if (want.kind == got.kind &&
        (!want.reads_variable() || want.variable == got.variable))
      continue;
    const bool planned_bridge =
        std::binary_search(bridges.begin(), bridges.end(), std::pair(r, c));
    diagnostic d;
    d.check_id =
        planned_bridge || got.kind == literal_kind::on ? "MAP003" : "MAP002";
    d.level = severity::error;
    if (want.kind == literal_kind::off) {
      d.message = "junction (" + std::to_string(r) + ", " +
                  std::to_string(c) + ") is programmed " + literal_text(got) +
                  " but no graph edge or bridge maps there";
      d.fix = "leave the junction unprogrammed";
    } else if (got.kind == literal_kind::off) {
      d.message = "junction (" + std::to_string(r) + ", " +
                  std::to_string(c) + ") should be programmed " +
                  literal_text(want) +
                  (planned_bridge
                       ? " (the VH bridge joining this row and column)"
                       : " (a mapped graph edge)") +
                  " but is off";
      d.fix = "program the junction with " + literal_text(want);
    } else {
      d.message = "junction (" + std::to_string(r) + ", " +
                  std::to_string(c) + ") is programmed " + literal_text(got) +
                  " but the mapping dictates " + literal_text(want);
      d.fix = "program the junction with " + literal_text(want);
    }
    d.anchors = {junction_entity(r, c)};
    out.add(std::move(d));
  }
}

}  // namespace

std::vector<check_descriptor> mapping_checks() {
  std::vector<check_descriptor> checks;
  check_descriptor c;

  c.id = "MAP001";
  c.name = "node-assignment";
  c.description =
      "Every node must occupy exactly the nanowires its label dictates";
  c.default_severity = severity::error;
  c.needs_mapping = true;
  c.run = check_assignment;
  checks.push_back(c);

  c = {};
  c.id = "MAP002";
  c.name = "junction-programming";
  c.description =
      "Every junction must carry exactly its mapped edge literal";
  c.default_severity = severity::error;
  c.needs_mapping = true;
  c.run = check_junctions;
  checks.push_back(c);

  c = {};
  c.id = "MAP003";
  c.name = "vh-bridge";
  c.description =
      "Every VH node's row/column pair must be joined by one always-on "
      "bridge";
  c.default_severity = severity::error;
  c.needs_mapping = true;
  c.run = nullptr;  // companion: MAP002's grid diff reports MAP003 findings
  checks.push_back(c);

  return checks;
}

}  // namespace compact::verify
