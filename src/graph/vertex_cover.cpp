#include "graph/vertex_cover.hpp"

#include <cmath>

#include "util/error.hpp"

namespace compact::graph {

std::vector<bool> greedy_vertex_cover(const undirected_graph& g) {
  std::vector<bool> cover(g.node_count(), false);
  for (const edge& e : g.edges())
    if (!cover[e.u] && !cover[e.v]) cover[e.u] = cover[e.v] = true;
  return cover;
}

bool is_vertex_cover(const undirected_graph& g,
                     const std::vector<bool>& cover) {
  if (cover.size() != g.node_count()) return false;
  for (const edge& e : g.edges())
    if (!cover[e.u] && !cover[e.v]) return false;
  return true;
}

vertex_cover_result min_vertex_cover_ilp(const undirected_graph& g,
                                         const milp::mip_options& options,
                                         const std::vector<edge>& not_both) {
  milp::model m;
  for (node_id v = 0; v < static_cast<node_id>(g.node_count()); ++v)
    m.add_binary(1.0, std::string("x").append(std::to_string(v)));
  for (const edge& e : g.edges())
    m.add_constraint({{e.u, 1.0}, {e.v, 1.0}}, milp::relation::greater_equal,
                     1.0);
  for (const edge& e : not_both)
    m.add_constraint({{e.u, 1.0}, {e.v, 1.0}}, milp::relation::less_equal,
                     1.0);

  milp::mip_options mip = options;
  if (!mip.warm_start) {
    const std::vector<bool> greedy = greedy_vertex_cover(g);
    std::vector<double> warm(g.node_count());
    for (std::size_t v = 0; v < warm.size(); ++v) warm[v] = greedy[v] ? 1 : 0;
    if (m.is_feasible(warm)) mip.warm_start = std::move(warm);
  }

  const milp::mip_result solved = milp::solve_mip(m, mip);
  check(solved.status == milp::mip_status::optimal ||
            solved.status == milp::mip_status::feasible,
        "min_vertex_cover_ilp: solver returned no cover");

  vertex_cover_result result;
  result.in_cover.assign(g.node_count(), false);
  for (std::size_t v = 0; v < g.node_count(); ++v)
    result.in_cover[v] = solved.x[v] > 0.5;
  result.size = static_cast<std::size_t>(std::llround(solved.objective));
  result.optimal = solved.status == milp::mip_status::optimal;
  check(is_vertex_cover(g, result.in_cover),
        "min_vertex_cover_ilp produced a non-cover");
  return result;
}

}  // namespace compact::graph
