#include "core/oct_reduce.hpp"

#include <algorithm>
#include <deque>

#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace compact::core {
namespace {

using graph::node_id;

/// Mutable parity multigraph the reductions run on. Vertices and edges are
/// removed by flipping alive flags; incident lists are filtered lazily.
struct parity_graph {
  struct pedge {
    node_id u = 0;
    node_id v = 0;
    int parity = 1;  // 1 = odd (an original edge), 0 = even (folded path)
    bool alive = true;
  };

  explicit parity_graph(const graph::undirected_graph& g)
      : vertex_alive(g.node_count(), true),
        degree(g.node_count(), 0),
        incident(g.node_count()) {
    edges.reserve(g.edge_count());
    for (const graph::edge& e : g.edges()) add_edge(e.u, e.v, 1);
  }

  std::vector<pedge> edges;
  std::vector<bool> vertex_alive;
  std::vector<int> degree;                 // alive incident edges, with multiplicity
  std::vector<std::vector<int>> incident;  // edge ids, stale entries filtered

  [[nodiscard]] node_id other(int e, node_id v) const {
    return edges[static_cast<std::size_t>(e)].u == v
               ? edges[static_cast<std::size_t>(e)].v
               : edges[static_cast<std::size_t>(e)].u;
  }

  void add_edge(node_id u, node_id v, int parity) {
    const int id = static_cast<int>(edges.size());
    edges.push_back({u, v, parity, true});
    incident[static_cast<std::size_t>(u)].push_back(id);
    incident[static_cast<std::size_t>(v)].push_back(id);
    ++degree[static_cast<std::size_t>(u)];
    ++degree[static_cast<std::size_t>(v)];
  }

  void remove_edge(int e) {
    pedge& edge = edges[static_cast<std::size_t>(e)];
    if (!edge.alive) return;
    edge.alive = false;
    --degree[static_cast<std::size_t>(edge.u)];
    --degree[static_cast<std::size_t>(edge.v)];
  }

  /// Remove `v` and every edge incident to it.
  void remove_vertex(node_id v) {
    if (!vertex_alive[static_cast<std::size_t>(v)]) return;
    vertex_alive[static_cast<std::size_t>(v)] = false;
    for (const int e : incident[static_cast<std::size_t>(v)]) remove_edge(e);
  }

  /// The alive edges incident to `v`, compacting out stale entries.
  std::vector<int>& alive_incident(node_id v) {
    auto& list = incident[static_cast<std::size_t>(v)];
    std::erase_if(list, [this](int e) {
      return !edges[static_cast<std::size_t>(e)].alive;
    });
    return list;
  }

  /// Id of an alive edge {u, v} with the given parity, or -1.
  [[nodiscard]] int find_edge(node_id u, node_id v, int parity) {
    for (const int e : alive_incident(u)) {
      const pedge& edge = edges[static_cast<std::size_t>(e)];
      if (edge.parity == parity && other(e, u) == v) return e;
    }
    return -1;
  }
};

/// Remove every component with no odd-parity cycle (parity-bipartite): a
/// 2-coloring with color[w] = color[u] xor parity(u, w) exists exactly when
/// no cycle has odd parity sum, and such components need no transversal
/// vertices at all. Returns the number of vertices stripped.
std::size_t strip_parity_bipartite_components(parity_graph& pg) {
  const std::size_t n = pg.vertex_alive.size();
  std::vector<int> color(n, -1);
  std::size_t stripped = 0;
  std::vector<node_id> component;
  std::deque<node_id> queue;
  for (std::size_t s = 0; s < n; ++s) {
    if (!pg.vertex_alive[s] || color[s] != -1) continue;
    component.clear();
    color[s] = 0;
    queue.push_back(static_cast<node_id>(s));
    component.push_back(static_cast<node_id>(s));
    bool bipartite = true;
    while (!queue.empty()) {
      const node_id u = queue.front();
      queue.pop_front();
      for (const int e : pg.alive_incident(u)) {
        const node_id w = pg.other(e, u);
        const int expected =
            color[static_cast<std::size_t>(u)] ^
            pg.edges[static_cast<std::size_t>(e)].parity;
        if (color[static_cast<std::size_t>(w)] == -1) {
          color[static_cast<std::size_t>(w)] = expected;
          queue.push_back(w);
          component.push_back(w);
        } else if (color[static_cast<std::size_t>(w)] != expected) {
          bipartite = false;
        }
      }
    }
    if (!bipartite) continue;
    stripped += component.size();
    for (const node_id v : component) pg.remove_vertex(v);
  }
  return stripped;
}

/// One low-degree sweep: delete degree-0/1 vertices and fold degree-2
/// vertices until no vertex of degree <= 2 remains. Returns whether anything
/// changed.
bool reduce_low_degree(parity_graph& pg, node_id anchor,
                       oct_reduction_stats& stats,
                       std::vector<node_id>& forced) {
  const std::size_t n = pg.vertex_alive.size();
  std::deque<node_id> work;
  for (std::size_t v = 0; v < n; ++v)
    if (pg.vertex_alive[v] && pg.degree[v] <= 2)
      work.push_back(static_cast<node_id>(v));

  bool changed = false;
  auto enqueue_if_low = [&](node_id v) {
    if (pg.vertex_alive[static_cast<std::size_t>(v)] &&
        pg.degree[static_cast<std::size_t>(v)] <= 2)
      work.push_back(v);
  };

  while (!work.empty()) {
    const node_id v = work.front();
    work.pop_front();
    if (!pg.vertex_alive[static_cast<std::size_t>(v)]) continue;
    const int deg = pg.degree[static_cast<std::size_t>(v)];
    if (deg > 2) continue;  // stale queue entry

    if (deg <= 1) {
      // Degree-0/1: v lies on no cycle.
      node_id neighbor = -1;
      if (deg == 1) neighbor = pg.other(pg.alive_incident(v).front(), v);
      pg.remove_vertex(v);
      ++stats.low_degree_removed;
      changed = true;
      if (neighbor >= 0) enqueue_if_low(neighbor);
      continue;
    }

    auto& inc = pg.alive_incident(v);
    const int e1 = inc[0];
    const int e2 = inc[1];
    const node_id a = pg.other(e1, v);
    const node_id b = pg.other(e2, v);
    const int p1 = pg.edges[static_cast<std::size_t>(e1)].parity;
    const int p2 = pg.edges[static_cast<std::size_t>(e2)].parity;

    if (a == b) {
      if (p1 == p2) {
        // Parallel equal-parity pair: drop one copy, then v is degree-1.
        pg.remove_edge(e1);
        ++stats.merges;
        pg.remove_vertex(v);
        ++stats.low_degree_removed;
      } else if (a == anchor) {
        // Odd 2-cycle v <-> anchor: the anchor is never deleted, so every
        // transversal contains v. Force v; the anchor stays.
        forced.push_back(v);
        ++stats.forced;
        pg.remove_vertex(v);
      } else {
        // Odd 2-cycle v <-> a and v has no other edges: every odd cycle
        // through v contains a, so a minimum transversal containing a
        // exists. Force a and delete both.
        forced.push_back(a);
        ++stats.forced;
        std::vector<int> a_edges = pg.alive_incident(a);  // copy: mutation
        pg.remove_vertex(a);
        pg.remove_vertex(v);
        for (const int e : a_edges) {
          const node_id w = pg.other(e, a);
          if (w != v) enqueue_if_low(w);
        }
      }
      changed = true;
      enqueue_if_low(a);
      continue;
    }

    // Fold the path a–v–b into one edge of parity p1 xor p2, merging into
    // an existing equal-parity edge if present.
    pg.remove_vertex(v);
    ++stats.folds;
    changed = true;
    const int parity = p1 ^ p2;
    if (pg.find_edge(a, b, parity) >= 0) {
      ++stats.merges;
    } else {
      pg.add_edge(a, b, parity);
    }
    enqueue_if_low(a);
    enqueue_if_low(b);
  }
  return changed;
}

}  // namespace

std::vector<bool> oct_kernel::lift(
    const std::vector<bool>& kernel_transversal) const {
  check(kernel_transversal.size() == kernel_.node_count() ||
            (kernel_transversal.empty() && solved()),
        "oct_kernel::lift: transversal does not match the kernel");
  std::vector<bool> out(original_node_count_, false);
  for (std::size_t j = 0; j < kernel_transversal.size(); ++j)
    if (kernel_transversal[j])
      out[static_cast<std::size_t>(original_of_kernel_[j])] = true;
  for (const node_id v : forced_) out[static_cast<std::size_t>(v)] = true;
  return out;
}

oct_kernel kernelize_for_oct(const graph::undirected_graph& g,
                             node_id anchor) {
  const trace_span span("oct_reduce", "label");
  oct_kernel kernel;
  kernel.original_node_count_ = g.node_count();
  kernel.stats_.original_nodes = g.node_count();
  kernel.stats_.original_edges = g.edge_count();

  parity_graph pg(g);
  std::vector<node_id> forced;

  // Alternate component stripping and low-degree sweeps until neither fires:
  // forcing a vertex can disconnect a component and leave parity-bipartite
  // pieces, and stripping can expose new low-degree vertices.
  bool changed = true;
  while (changed) {
    ++kernel.stats_.rounds;
    changed = false;
    const std::size_t stripped = strip_parity_bipartite_components(pg);
    kernel.stats_.bipartite_stripped += stripped;
    if (stripped > 0) changed = true;
    if (reduce_low_degree(pg, anchor, kernel.stats_, forced)) changed = true;
  }
  kernel.forced_ = std::move(forced);

  // Materialize the surviving parity graph as a simple graph: odd edges map
  // directly, each even edge becomes a path through a subdivision vertex
  // that lifts to one of its endpoints (never the anchor).
  std::vector<node_id> kernel_of_original(g.node_count(), -1);
  for (std::size_t v = 0; v < g.node_count(); ++v) {
    if (!pg.vertex_alive[v]) continue;
    kernel_of_original[v] =
        static_cast<node_id>(kernel.original_of_kernel_.size());
    kernel.original_of_kernel_.push_back(static_cast<node_id>(v));
  }
  graph::undirected_graph materialized(kernel.original_of_kernel_.size());
  for (const parity_graph::pedge& e : pg.edges) {
    if (!e.alive) continue;
    const node_id ku = kernel_of_original[static_cast<std::size_t>(e.u)];
    const node_id kv = kernel_of_original[static_cast<std::size_t>(e.v)];
    if (e.parity == 1) {
      materialized.add_edge(ku, kv);
    } else {
      const node_id w = materialized.add_node();
      kernel.original_of_kernel_.push_back(e.u == anchor ? e.v : e.u);
      materialized.add_edge(ku, w);
      materialized.add_edge(w, kv);
    }
  }
  if (anchor >= 0)
    kernel.anchor_ = kernel_of_original[static_cast<std::size_t>(anchor)];
  kernel.kernel_ = std::move(materialized);
  kernel.stats_.kernel_nodes = kernel.kernel_.node_count();
  kernel.stats_.kernel_edges = kernel.kernel_.edge_count();

  if (metrics_enabled()) {
    metrics_registry& registry = global_metrics();
    static metric_counter& runs = registry.counter("oct_reduce.runs");
    static metric_counter& original_nodes =
        registry.counter("oct_reduce.original_nodes");
    static metric_counter& kernel_nodes =
        registry.counter("oct_reduce.kernel_nodes");
    static metric_counter& bipartite_stripped =
        registry.counter("oct_reduce.bipartite_stripped");
    static metric_counter& low_degree_removed =
        registry.counter("oct_reduce.low_degree_removed");
    static metric_counter& folds = registry.counter("oct_reduce.folds");
    static metric_counter& merges = registry.counter("oct_reduce.merges");
    static metric_counter& forced = registry.counter("oct_reduce.forced");
    static metric_histogram& kernel_ratio = registry.histogram(
        "oct_reduce.kernel_ratio", {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0});
    runs.increment();
    original_nodes.add(kernel.stats_.original_nodes);
    kernel_nodes.add(kernel.stats_.kernel_nodes);
    bipartite_stripped.add(kernel.stats_.bipartite_stripped);
    low_degree_removed.add(kernel.stats_.low_degree_removed);
    folds.add(kernel.stats_.folds);
    merges.add(kernel.stats_.merges);
    forced.add(kernel.stats_.forced);
    kernel_ratio.observe(
        kernel.stats_.original_nodes == 0
            ? 0.0
            : static_cast<double>(kernel.stats_.kernel_nodes) /
                  static_cast<double>(kernel.stats_.original_nodes));
  }
  return kernel;
}

graph::oct_result reduced_odd_cycle_transversal(
    const graph::undirected_graph& g, const graph::oct_options& options,
    oct_reduction_stats* stats_out) {
  const oct_kernel kernel = kernelize_for_oct(g, options.anchor);
  if (stats_out != nullptr) *stats_out = kernel.stats();

  graph::oct_result result;
  if (kernel.solved()) {
    result.in_transversal = kernel.lift({});
    result.optimal = true;
  } else {
    graph::oct_options on_kernel_options = options;
    on_kernel_options.anchor = kernel.kernel_anchor();
    const graph::oct_result on_kernel = graph::odd_cycle_transversal(
        kernel.kernel_graph(), on_kernel_options);
    result.in_transversal = kernel.lift(on_kernel.in_transversal);
    result.optimal = on_kernel.optimal;
    result.lower_bound = on_kernel.lower_bound;
    result.search_nodes = on_kernel.search_nodes;
  }
  result.size = static_cast<std::size_t>(std::count(
      result.in_transversal.begin(), result.in_transversal.end(), true));
  // Reductions are exact: OPT(g) = OPT(kernel) + |forced|.
  result.lower_bound += kernel.stats().forced;
  if (result.optimal) result.lower_bound = result.size;
  check(graph::is_odd_cycle_transversal(g, result.in_transversal),
        "oct_reduce: lifted transversal is not a valid OCT");
  check(options.anchor < 0 ||
            !result.in_transversal[static_cast<std::size_t>(options.anchor)],
        "oct_reduce: lifted transversal contains the anchor");
  return result;
}

}  // namespace compact::core
