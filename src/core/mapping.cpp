#include "core/mapping.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"

namespace compact::core {

mapping_result map_to_crossbar(const bdd_graph& graph, const labeling& l) {
  const graph::undirected_graph& g = graph.g;
  check(l.label_of.size() == g.node_count(),
        "map_to_crossbar: labeling size mismatch");
  check(is_feasible(g, l), "map_to_crossbar: infeasible labeling");
  check(satisfies_alignment(graph, l),
        "map_to_crossbar: terminal/outputs must carry a wordline "
        "(run the labeler with alignment enabled)");

  const auto n = static_cast<graph::node_id>(g.node_count());

  // ---- Node assignment. ---------------------------------------------------
  // Row order: distinct output nodes first (top), then the other wordline
  // holders, then the '1' terminal (bottom, the input row).
  std::vector<int> row_of(g.node_count(), -1);
  std::vector<int> column_of(g.node_count(), -1);

  std::vector<graph::node_id> row_order;
  std::vector<bool> placed(g.node_count(), false);
  for (const bdd_graph::output_binding& o : graph.outputs) {
    if (!placed[static_cast<std::size_t>(o.node)]) {
      placed[static_cast<std::size_t>(o.node)] = true;
      row_order.push_back(o.node);
    }
  }
  for (graph::node_id v = 0; v < n; ++v) {
    if (placed[static_cast<std::size_t>(v)] || v == graph.terminal_node)
      continue;
    if (l.has_row(v)) row_order.push_back(v);
  }
  if (graph.terminal_node >= 0) row_order.push_back(graph.terminal_node);

  for (std::size_t r = 0; r < row_order.size(); ++r)
    row_of[static_cast<std::size_t>(row_order[r])] = static_cast<int>(r);

  int columns = 0;
  for (graph::node_id v = 0; v < n; ++v)
    if (l.has_column(v)) column_of[static_cast<std::size_t>(v)] = columns++;

  const int rows = static_cast<int>(row_order.size());
  xbar::crossbar shape(std::max(rows, 1), columns);

  // ---- Ports. --------------------------------------------------------------
  if (graph.terminal_node >= 0)
    shape.set_input_row(row_of[static_cast<std::size_t>(graph.terminal_node)]);
  else
    shape.set_input_row(0);  // degenerate: constants only
  for (const bdd_graph::output_binding& o : graph.outputs)
    shape.add_output(row_of[static_cast<std::size_t>(o.node)], o.name);
  for (const auto& [name, value] : graph.constant_outputs)
    shape.add_constant_output(value, name);

  // ---- Node and edge assignment. -------------------------------------------
  // VH bridges: the node's wordline and bitline are the same electrical
  // node, realized with an always-on memristor at their junction.
  std::vector<xbar::placed_device> devices;
  for (graph::node_id v = 0; v < n; ++v)
    if (l.label_of[static_cast<std::size_t>(v)] == vh_label::vh)
      devices.push_back({row_of[static_cast<std::size_t>(v)],
                         column_of[static_cast<std::size_t>(v)],
                         {xbar::literal_kind::on, -1}});
  // Edges: one memristor programmed with the edge's literal, at the
  // junction of one endpoint's wordline and the other's bitline.
  const std::vector<graph::edge>& edges = g.edges();
  for (std::size_t e = 0; e < edges.size(); ++e) {
    auto [u, v] = edges[e];
    if (!l.has_row(u) || !l.has_column(v)) std::swap(u, v);
    const edge_literal lit = graph.literal_of_edge[e];
    devices.push_back({row_of[static_cast<std::size_t>(u)],
                       column_of[static_cast<std::size_t>(v)],
                       {lit.positive ? xbar::literal_kind::positive
                                     : xbar::literal_kind::negative,
                        lit.variable}});
  }

  // The constructor keeps one device per junction, so a design shorter
  // than the list means a junction was assigned twice.
  const std::size_t device_count = devices.size();
  mapping_result result{xbar::crossbar(shape, std::move(devices)),
                        std::move(row_of), std::move(column_of)};
  check(result.design.devices().size() == device_count,
        "map_to_crossbar: junction assigned twice");
  return result;
}

}  // namespace compact::core
