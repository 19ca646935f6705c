#include <algorithm>
#include <array>

#include "core/labelers.hpp"
#include "core/oct_reduce.hpp"
#include "graph/bipartite.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace compact::core {
namespace {

/// Choose per-component flips minimizing max(row total, column total).
/// Component i contributes per_component[i] = (to_H, to_V) when kept and the
/// swapped pair when flipped; `bias` seeds both totals (VH nodes and fixed
/// components). Returns the flip decisions.
std::vector<char> balance_flips(
    const std::vector<std::pair<int, int>>& per_component, int bias_rows,
    int bias_columns) {
  const int k = static_cast<int>(per_component.size());
  int total = bias_rows + bias_columns;
  for (const auto& [a, b] : per_component) total += a + b;

  // DP over achievable row totals, with parent pointers for the backtrace.
  std::vector<std::vector<int>> parent(
      static_cast<std::size_t>(k), std::vector<int>(total + 1, -1));
  std::vector<char> reachable(static_cast<std::size_t>(total) + 1, 0);
  reachable[static_cast<std::size_t>(bias_rows)] = 1;
  for (int c = 0; c < k; ++c) {
    std::vector<char> next(static_cast<std::size_t>(total) + 1, 0);
    for (int t = 0; t <= total; ++t) {
      if (!reachable[static_cast<std::size_t>(t)]) continue;
      const int keep = t + per_component[static_cast<std::size_t>(c)].first;
      const int flip = t + per_component[static_cast<std::size_t>(c)].second;
      if (keep <= total && !next[static_cast<std::size_t>(keep)]) {
        next[static_cast<std::size_t>(keep)] = 1;
        parent[static_cast<std::size_t>(c)][static_cast<std::size_t>(keep)] =
            t * 2;
      }
      if (flip <= total && !next[static_cast<std::size_t>(flip)]) {
        next[static_cast<std::size_t>(flip)] = 1;
        parent[static_cast<std::size_t>(c)][static_cast<std::size_t>(flip)] =
            t * 2 + 1;
      }
    }
    reachable.swap(next);
  }

  int best_rows = -1;
  int best_objective = total + 1;
  for (int t = 0; t <= total; ++t) {
    if (!reachable[static_cast<std::size_t>(t)]) continue;
    const int objective = std::max(t, total - t);
    if (objective < best_objective) {
      best_objective = objective;
      best_rows = t;
    }
  }
  check(best_rows >= 0, "balance_flips: no achievable assignment");

  std::vector<char> flips(static_cast<std::size_t>(k), 0);
  int t = best_rows;
  for (int c = k - 1; c >= 0; --c) {
    const int enc = parent[static_cast<std::size_t>(c)][static_cast<std::size_t>(t)];
    check(enc >= 0, "balance_flips: broken backtrace");
    flips[static_cast<std::size_t>(c)] = static_cast<char>(enc & 1);
    t = enc >> 1;
  }
  return flips;
}

}  // namespace

anchored_graph anchor_aligned_nodes(const bdd_graph& graph, bool alignment) {
  anchored_graph anchored{graph.g, -1, graph.g.node_count()};
  if (alignment) {
    const std::vector<graph::node_id> aligned = graph.aligned_nodes();
    if (!aligned.empty()) {
      anchored.anchor = anchored.g.add_node();
      for (const graph::node_id v : aligned)
        anchored.g.add_edge(anchored.anchor, v);
    }
  }
  return anchored;
}

labeling label_transversal(const anchored_graph& anchored,
                           const std::vector<bool>& in_transversal,
                           bool balance) {
  const std::size_t n = anchored.graph_nodes;
  const graph::undirected_graph& g = anchored.g;

  // 2-color the induced bipartite subgraph (anchor included).
  std::vector<bool> keep(g.node_count());
  for (std::size_t v = 0; v < keep.size(); ++v) keep[v] = !in_transversal[v];
  const auto induced = g.induced_subgraph(keep);
  const auto coloring = graph::try_two_color(induced.subgraph);
  check(coloring.has_value(), "label_oct: G - OCT is not bipartite");
  const auto components = induced.subgraph.connected_components();

  // color_of / component_of in *anchored* vertex ids (-1 for VH nodes).
  std::vector<int> color_of(g.node_count(), -1);
  std::vector<int> component_of(g.node_count(), -1);
  for (std::size_t v = 0; v < g.node_count(); ++v) {
    const graph::node_id nv = induced.new_id_of[v];
    if (nv < 0) continue;
    color_of[v] = coloring->color_of[static_cast<std::size_t>(nv)];
    component_of[v] =
        components.component_of[static_cast<std::size_t>(nv)];
  }

  // Orientations. Orientation 0 maps color 0 to H (rows); orientation 1
  // maps color 1 to H. The anchor's component is fixed with the anchor on
  // the V side, which puts every aligned node on H; every other component
  // is free.
  const int k = components.count;
  std::vector<int> orientation(static_cast<std::size_t>(k), -1);
  if (anchored.anchor >= 0) {
    const auto a = static_cast<std::size_t>(anchored.anchor);
    orientation[static_cast<std::size_t>(component_of[a])] = 1 - color_of[a];
  }
  std::vector<std::array<int, 2>> size_by_color(
      static_cast<std::size_t>(k), {0, 0});
  int vh_count = 0;
  for (std::size_t v = 0; v < n; ++v) {
    const int c = component_of[v];
    if (c < 0) {
      ++vh_count;
      continue;
    }
    ++size_by_color[static_cast<std::size_t>(c)]
                   [static_cast<std::size_t>(color_of[v])];
  }

  // Balance the free components (Fig. 6). VH nodes occupy one row and one
  // column each; the fixed component contributes its oriented counts.
  int bias_rows = vh_count;
  int bias_columns = vh_count;
  std::vector<int> free_components;
  std::vector<std::pair<int, int>> free_contribution;  // (rows, cols) if kept
  for (int c = 0; c < k; ++c) {
    const int n0 = size_by_color[static_cast<std::size_t>(c)][0];
    const int n1 = size_by_color[static_cast<std::size_t>(c)][1];
    const int o = orientation[static_cast<std::size_t>(c)];
    if (o == 0) {
      bias_rows += n0;
      bias_columns += n1;
    } else if (o == 1) {
      bias_rows += n1;
      bias_columns += n0;
    } else {
      free_components.push_back(c);
      free_contribution.emplace_back(n0, n1);  // orientation 0 when "kept"
    }
  }

  std::vector<char> flips(free_components.size(), 0);
  if (balance && !free_components.empty())
    flips = balance_flips(free_contribution, bias_rows, bias_columns);
  for (std::size_t i = 0; i < free_components.size(); ++i)
    orientation[static_cast<std::size_t>(free_components[i])] = flips[i];

  // Emit labels.
  labeling l;
  l.label_of.assign(n, vh_label::v);
  for (std::size_t v = 0; v < n; ++v) {
    if (in_transversal[v]) {
      l.label_of[v] = vh_label::vh;
      continue;
    }
    const int o = orientation[static_cast<std::size_t>(component_of[v])];
    l.label_of[v] = color_of[v] == o ? vh_label::h : vh_label::v;
  }
  return l;
}

oct_label_result label_minimal_semiperimeter(const bdd_graph& graph,
                                             const oct_label_options& options) {
  const trace_span span("label_oct", "label");
  const graph::undirected_graph& g = graph.g;
  oct_label_result result;
  if (g.node_count() == 0) {
    result.optimal = true;
    return result;
  }

  // Step 1: the VH set. Under alignment, join one anchor vertex to every
  // aligned node and forbid deleting it: in G + anchor - X the aligned nodes
  // all take the colour opposite the anchor's, so any transversal X that
  // avoids the anchor is exactly the VH set of a labeling satisfying Eq. 7,
  // and a minimum one minimizes S = n + |X| under alignment. Kernelize first
  // (unless disabled): the reductions are exact, so the lifted transversal
  // has the same size as an unreduced solve.
  const anchored_graph anchored =
      anchor_aligned_nodes(graph, options.alignment);
  graph::oct_options oct;
  oct.engine = options.engine;
  oct.time_limit_seconds = options.time_limit_seconds;
  oct.threads = options.threads;
  oct.anchor = anchored.anchor;
  const graph::oct_result transversal =
      options.reduce ? reduced_odd_cycle_transversal(anchored.g, oct)
                     : graph::odd_cycle_transversal(anchored.g, oct);
  result.oct_size = transversal.size;
  result.optimal = transversal.optimal;
  result.relative_gap =
      static_cast<double>(transversal.size - transversal.lower_bound) /
      static_cast<double>(g.node_count() + transversal.size);
  if (metrics_enabled()) {
    static metric_counter& runs = global_metrics().counter("label_oct.runs");
    static metric_histogram& oct_size = global_metrics().histogram(
        "label_oct.oct_size", {0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0});
    runs.increment();
    oct_size.observe(static_cast<double>(result.oct_size));
  }

  // Steps 2-4: colour G + anchor - X, orient and balance its components.
  result.l = label_transversal(anchored, transversal.in_transversal,
                               options.balance);

  check(is_feasible(g, result.l), "label_oct: infeasible labeling produced");
  if (options.alignment)
    check(satisfies_alignment(graph, result.l),
          "label_oct: alignment violated");
  return result;
}

}  // namespace compact::core
