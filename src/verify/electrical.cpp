#include "verify/electrical.hpp"

#include <algorithm>
#include <deque>
#include <span>
#include <utility>

#include "util/trace.hpp"

namespace compact::verify {
namespace {

// The shared resistive-network view: every nanowire of every fragment is one
// node (numbered by xbar::wire_numbering), every device is a device edge,
// every inter-array bridge a bridge edge. The single-array overload builds
// the degenerate one-fragment version.
struct wire_graph {
  struct edge {
    int a = 0;
    int b = 0;
    bool bridge = false;
  };
  struct sensed_output {
    std::string name;
    int array = 0;
    int row = 0;
    int wire = 0;
  };

  int wires = 0;
  int input_wire = -1;
  std::vector<edge> edges;
  std::vector<std::vector<int>> incident;  // wire -> edge indices
  std::vector<sensed_output> outputs;
  std::vector<bool> sensed;  // wire carries a sensing resistor

  void add_edge(int a, int b, bool bridge) {
    const int id = static_cast<int>(edges.size());
    edges.push_back({a, b, bridge});
    incident[static_cast<std::size_t>(a)].push_back(id);
    incident[static_cast<std::size_t>(b)].push_back(id);
  }
};

wire_graph build_graph(std::span<const xbar::crossbar> fragments,
                       std::span<const xbar::bridge> bridges) {
  const xbar::wire_numbering wires(fragments);
  wire_graph g;
  g.wires = wires.total();
  g.incident.resize(static_cast<std::size_t>(g.wires));
  g.sensed.assign(static_cast<std::size_t>(g.wires), false);
  for (int f = 0; f < static_cast<int>(fragments.size()); ++f) {
    const xbar::crossbar& fragment = fragments[static_cast<std::size_t>(f)];
    for (const xbar::placed_device& p : fragment.devices())
      g.add_edge(wires.row(f, p.row), wires.column(f, p.column), false);
    if (fragment.input_row() >= 0)
      g.input_wire = wires.row(f, fragment.input_row());
    for (const xbar::output_port& port : fragment.outputs()) {
      if (port.row < 0 || port.row >= fragment.rows()) continue;
      const int wire = wires.row(f, port.row);
      g.outputs.push_back({port.name, f, port.row, wire});
      g.sensed[static_cast<std::size_t>(wire)] = true;
    }
  }
  for (const xbar::bridge& b : bridges) {
    if (!wires.contains(b.a) || !wires.contains(b.b))
      continue;  // malformed bridge; PAR002 flags it
    g.add_edge(wires.of(b.a), wires.of(b.b), true);
  }
  return g;
}

int other_end(const wire_graph& g, int e, int wire) {
  const wire_graph::edge& edge = g.edges[static_cast<std::size_t>(e)];
  return edge.a == wire ? edge.b : edge.a;
}

/// 0/1-weighted BFS distance in *device* hops from `source` (bridges are
/// free). -1 for unreachable wires.
std::vector<int> device_distance(const wire_graph& g, int source) {
  std::vector<int> dist(static_cast<std::size_t>(g.wires), -1);
  if (source < 0) return dist;
  std::deque<int> frontier;
  dist[static_cast<std::size_t>(source)] = 0;
  frontier.push_back(source);
  while (!frontier.empty()) {
    const int w = frontier.front();
    frontier.pop_front();
    for (const int e : g.incident[static_cast<std::size_t>(w)]) {
      const wire_graph::edge& edge = g.edges[static_cast<std::size_t>(e)];
      const int other = edge.a == w ? edge.b : edge.a;
      const int d = dist[static_cast<std::size_t>(w)] + (edge.bridge ? 0 : 1);
      if (dist[static_cast<std::size_t>(other)] != -1 &&
          dist[static_cast<std::size_t>(other)] <= d)
        continue;
      dist[static_cast<std::size_t>(other)] = d;
      if (edge.bridge)
        frontier.push_front(other);
      else
        frontier.push_back(other);
    }
  }
  return dist;
}

/// Wires reachable from `source` without entering a `blocked` wire.
std::vector<char> reachable(const wire_graph& g, int source,
                            const std::vector<char>& blocked) {
  std::vector<char> seen(static_cast<std::size_t>(g.wires), 0);
  std::vector<int> stack{source};
  seen[static_cast<std::size_t>(source)] = 1;
  while (!stack.empty()) {
    const int w = stack.back();
    stack.pop_back();
    for (const int e : g.incident[static_cast<std::size_t>(w)]) {
      const auto other = static_cast<std::size_t>(other_end(g, e, w));
      if (seen[other] || blocked[other]) continue;
      seen[other] = 1;
      stack.push_back(static_cast<int>(other));
    }
  }
  return seen;
}

/// Simple source-to-target paths (distinct edge sequences), counted up to
/// `cap`. The depth-first walk steps only into wires that still reach the
/// target without touching the current path, so every branch ends in a
/// path and the walk takes O(cap * wires) steps, one search each.
int count_simple_paths(const wire_graph& g, int source, int target, int cap) {
  std::vector<char> on_path(static_cast<std::size_t>(g.wires), 0);
  on_path[static_cast<std::size_t>(source)] = 1;
  std::vector<std::pair<int, std::size_t>> path{{source, 0}};  // wire, edge
  int paths = 0;
  while (!path.empty() && paths < cap) {
    auto& [wire, next] = path.back();
    const std::vector<char> live = reachable(g, target, on_path);
    const std::vector<int>& incident =
        g.incident[static_cast<std::size_t>(wire)];
    int step = -1;
    while (step < 0 && next < incident.size() && paths < cap) {
      const int other = other_end(g, incident[next++], wire);
      if (other == target)
        ++paths;
      else if (!on_path[static_cast<std::size_t>(other)] &&
               live[static_cast<std::size_t>(other)])
        step = other;
    }
    if (step < 0) {
      on_path[static_cast<std::size_t>(wire)] = 0;
      path.pop_back();
    } else {
      on_path[static_cast<std::size_t>(step)] = 1;
      path.emplace_back(step, 0);
    }
  }
  return paths;
}

electrical_report analyze_graph(const wire_graph& g,
                                const electrical_options& options) {
  const trace_span span("analyze_electrical", "verify");
  electrical_report report;
  const analog::device_model& model = options.model;
  const std::vector<int> from_input = device_distance(g, g.input_wire);

  // Devices conduct both ways, so every reachable output's corridor (wires
  // reachable from the input and co-reachable from the output) is the
  // input wire's connected component. Every simple conduction path is
  // confined to it; a simple path over N wires has at most N - 1 edges,
  // and at most all of the component's device (bridge) edges.
  int component_wires = 0;
  int component_sensed = 0;
  for (int w = 0; w < g.wires; ++w) {
    if (from_input[static_cast<std::size_t>(w)] < 0) continue;
    ++component_wires;
    if (g.sensed[static_cast<std::size_t>(w)]) ++component_sensed;
  }
  int component_devices = 0;
  int component_bridges = 0;
  for (const wire_graph::edge& e : g.edges) {
    if (from_input[static_cast<std::size_t>(e.a)] < 0) continue;
    if (e.bridge)
      ++component_bridges;
    else
      ++component_devices;
  }
  const int hop_cap = std::max(component_wires - 1, 0);
  const int worst_on_devices = std::min(component_devices, hop_cap);
  const int bridge_crossings = std::min(component_bridges, hop_cap);
  const double worst_on_resistance =
      worst_on_devices * model.r_on +
      bridge_crossings * options.bridge_resistance;
  // Divider bounds. Every other sensed wordline in the corridor could load
  // the ON path; lump their sensing resistors in parallel with the output's
  // own (pessimistic — real shunts sit upstream of part of the path
  // resistance).
  const double r_load = model.r_sense / std::max(component_sensed, 1);
  const double sense_level = model.threshold * model.v_in;

  std::vector<char> blocked(static_cast<std::size_t>(g.wires), 0);
  bool any_reachable = false;
  for (const wire_graph::sensed_output& port : g.outputs) {
    output_margin m;
    m.name = port.name;
    m.array = port.array;
    m.row = port.row;
    m.min_on_devices = from_input[static_cast<std::size_t>(port.wire)];
    if (m.min_on_devices < 0) {
      // No resistive path at all: the output can neither read 1 nor leak.
      // The conduction-graph checks (XBR/EQV) own that finding.
      m.safe = true;
      report.outputs.push_back(std::move(m));
      continue;
    }
    m.worst_on_devices = worst_on_devices;
    m.bridge_crossings = bridge_crossings;
    m.worst_on_resistance = worst_on_resistance;

    // Parallel leakage paths each enter the output row through their own
    // edge, so they number min(entry degree, simple input-to-output
    // paths). An output on the input row is one path.
    const std::vector<int>& entries =
        g.incident[static_cast<std::size_t>(port.wire)];
    const int entry_degree = static_cast<int>(entries.size());
    m.parallel_paths = 1;
    if (port.wire != g.input_wire && entry_degree > 1) {
      // Every entry neighbour the input reaches with the output row
      // removed closes a distinct simple path. Only when the output row
      // cuts one off must the paths be counted.
      blocked[static_cast<std::size_t>(port.wire)] = 1;
      const std::vector<char> reached = reachable(g, g.input_wire, blocked);
      blocked[static_cast<std::size_t>(port.wire)] = 0;
      const bool all_reached =
          std::all_of(entries.begin(), entries.end(), [&](int e) {
            return reached[static_cast<std::size_t>(
                other_end(g, e, port.wire))] != 0;
          });
      m.parallel_paths = std::max(
          1, all_reached ? entry_degree
                         : count_simple_paths(g, g.input_wire, port.wire,
                                              entry_degree));
    }
    m.best_off_resistance = model.r_off / m.parallel_paths;
    m.margin_ratio =
        m.best_off_resistance / std::max(m.worst_on_resistance, model.r_on);
    m.min_high_voltage =
        model.v_in * r_load / (r_load + m.worst_on_resistance);
    m.max_low_voltage =
        model.v_in * model.r_sense / (model.r_sense + m.best_off_resistance);
    m.safe = m.margin_ratio >= options.margin_threshold &&
             m.min_high_voltage >= sense_level &&
             m.max_low_voltage < sense_level;

    if (!any_reachable || m.margin_ratio < report.min_margin_ratio)
      report.min_margin_ratio = m.margin_ratio;
    any_reachable = true;
    report.safe = report.safe && m.safe;
    report.outputs.push_back(std::move(m));
  }
  if (!any_reachable) report.min_margin_ratio = 0.0;
  return report;
}

}  // namespace

electrical_report analyze_electrical(const xbar::crossbar& design,
                                     const electrical_options& options) {
  return analyze_graph(build_graph({&design, 1}, {}), options);
}

electrical_report analyze_electrical(const xbar::partitioned_design& design,
                                     const electrical_options& options) {
  return analyze_graph(build_graph(design.fragments(), design.connections()),
                       options);
}

}  // namespace compact::verify
