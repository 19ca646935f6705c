// Odd cycle transversal (OCT).
//
// The crux of COMPACT's minimal-semiperimeter method: the nodes that must be
// labeled VH are exactly an odd cycle transversal of the BDD graph, and a
// minimum OCT yields the minimum semiperimeter n + |OCT| (Section VI-A).
//
// Two engines solve it. The default is a direct branch-and-bound on the
// graph itself: every search node branches on the undecided vertices of a
// short odd cycle (delete the first; or keep it and delete the second; ...),
// kept vertices live in a parity union-find with undo, and the bound is a
// greedy packing of odd cycles that share no undecided vertex. The search
// splits into connected components as deletions disconnect the graph
// (docs/solver.md describes it in full). The second engine is the paper's
// route through Lemma 1 — OCT(G) of size k <=> VC(G x K2) of size n + k —
// solved as an ILP; it is the test oracle.
//
// Both accept one never-deleted vertex (the anchor). label_oct joins an
// anchor to every alignment-constrained node, so a transversal avoiding it
// is exactly the VH set of a labeling that satisfies Eq. 7.
//
// A third search lists every minimum transversal instead of finding one;
// Method 2's optimality certificate uses it to check each VH set Method 1
// could have chosen.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "graph/graph.hpp"

namespace compact::graph {

struct oct_result {
  std::vector<bool> in_transversal;  // indexed by node id
  std::size_t size = 0;
  bool optimal = false;
  /// Certified lower bound on the minimum size: per connected component,
  /// the component's optimum where the search closed it and the root
  /// odd-cycle packing where it did not. Equals `size` when optimal.
  std::size_t lower_bound = 0;
  /// Branch-and-bound nodes the bnb engine explored (0 for ilp). A
  /// deterministic measure of effort: it does not depend on the clock
  /// unless the time limit cut the search short.
  std::uint64_t search_nodes = 0;
};

enum class oct_engine {
  bnb,  // direct odd-cycle branch-and-bound (default)
  ilp,  // the paper's Lemma-1 ILP through src/milp (test oracle)
};

struct oct_options {
  oct_engine engine = oct_engine::bnb;
  double time_limit_seconds = 60.0;
  /// A vertex no transversal may contain, or -1 for none.
  node_id anchor = -1;
  /// Worker threads for the ilp engine's branch-and-bound (the bnb engine
  /// is single-threaded). Results are identical for any value.
  int threads = 1;
};

/// Minimum odd cycle transversal avoiding options.anchor. If the time limit
/// is hit, a valid (not necessarily minimum) transversal is returned with
/// optimal=false and a certified lower_bound. The bnb engine adds its
/// search_nodes to the graph.oct.search_nodes counter when metrics are on.
[[nodiscard]] oct_result odd_cycle_transversal(const undirected_graph& g,
                                               const oct_options& options = {});

struct oct_enumeration {
  /// True when every minimum transversal was visited: the node limit did
  /// not cut the search short and the visitor never ended it.
  bool complete = false;
  /// Search nodes explored, leaves included; at most the node limit.
  std::uint64_t search_nodes = 0;
};

/// Called once per transversal (indexed by node id); returns true to end
/// the enumeration.
using transversal_visitor = std::function<bool(const std::vector<bool>&)>;

/// Visits every odd cycle transversal of `g` with `size` vertices that
/// avoids `anchor` (-1 for none), each once; `size` must be the minimum.
/// The search branches like the bnb engine (child i deletes c_i and keeps
/// c_1..c_{i-1} of an odd cycle) and prunes by the odd-cycle packing bound,
/// but applies none of its reductions or component splits: those preserve
/// one minimum, not all of them. A search that needs more than
/// `node_limit` nodes stops there and reports itself incomplete.
[[nodiscard]] oct_enumeration enumerate_minimum_transversals(
    const undirected_graph& g, node_id anchor, std::size_t size,
    std::uint64_t node_limit, const transversal_visitor& visit);

/// Fast heuristic transversal avoiding `anchor` (-1 for none): greedily
/// delete one vertex per odd-coloring conflict. Always valid; the bnb
/// engine's first incumbent.
[[nodiscard]] oct_result greedy_odd_cycle_transversal(
    const undirected_graph& g, node_id anchor = -1);

/// True iff deleting `transversal` from `g` leaves a bipartite graph.
[[nodiscard]] bool is_odd_cycle_transversal(
    const undirected_graph& g, const std::vector<bool>& transversal);

}  // namespace compact::graph
