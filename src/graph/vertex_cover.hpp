// Minimum vertex cover.
//
// Section VI-A of the paper reduces the odd-cycle-transversal problem to a
// minimum vertex cover of G x K2 and solves the cover with an ILP. That ILP
// is kept here as the test oracle of graph/oct (the OCT path itself runs a
// direct odd-cycle branch-and-bound and never builds G x K2).
#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "milp/branch_and_bound.hpp"

namespace compact::graph {

struct vertex_cover_result {
  std::vector<bool> in_cover;  // indexed by node id
  std::size_t size = 0;
  bool optimal = false;  // proven minimum (time limit not hit)
};

/// Minimum vertex cover via the 0/1 ILP  min sum x_v  s.t.  x_u + x_v >= 1,
/// plus x_a + x_b <= 1 for every pair {a, b} in `not_both`. A warm start in
/// `options` must satisfy both; without one, a greedy cover seeds the
/// search when it respects `not_both`.
[[nodiscard]] vertex_cover_result min_vertex_cover_ilp(
    const undirected_graph& g, const milp::mip_options& options = {},
    const std::vector<edge>& not_both = {});

/// Simple 2-approximation (take both endpoints of a maximal matching);
/// used as a warm start.
[[nodiscard]] std::vector<bool> greedy_vertex_cover(const undirected_graph& g);

/// True iff every edge of `g` has an endpoint in `cover`.
[[nodiscard]] bool is_vertex_cover(const undirected_graph& g,
                                   const std::vector<bool>& cover);

}  // namespace compact::graph
