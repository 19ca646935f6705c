// OCT kernelization: safe reductions applied to the BDD graph before the
// odd-cycle-transversal solver runs.
//
// OCT is fixed-parameter tractable and admits classic kernelization rules.
// We apply the degree-based ones on a *parity multigraph*: every original
// edge starts with odd parity, and folding a degree-2 vertex v with incident
// parities p1, p2 replaces the path a–v–b by a single edge (a, b) of parity
// p1 xor p2. A cycle of the parity graph is "odd" iff its parities sum to 1,
// which matches odd cycles of the original graph exactly, so minimum odd
// cycle transversals are preserved by:
//
//   * deleting degree-0/1 vertices (they lie on no cycle),
//   * stripping components with no odd-parity cycle (parity-bipartite
//     components need no transversal vertices),
//   * folding degree-2 vertices as above (any cycle through v passes both
//     neighbors, so a transversal never *needs* v: swapping v for a neighbor
//     keeps it a transversal of equal size),
//   * merging parallel edges of equal parity (they carry the same cycle
//     constraints), and
//   * when v's only two edges both lead to a with *different* parities, the
//     pair forms an odd 2-cycle, every odd cycle through v contains a, and
//     some minimum transversal therefore contains a: force a into the
//     transversal and delete both vertices.
//
// One vertex may be marked as the anchor, which no transversal contains
// (label_oct's alignment vertex). The rules respect it: the odd-2-cycle
// rule forces v instead when a is the anchor, and folding never needs the
// anchor because the swap argument can always pick the other neighbour.
//
// The surviving kernel is materialized back into a simple undirected graph
// for the unchanged solvers in graph/: odd-parity edges become plain edges
// and each even-parity edge becomes a two-edge path through a fresh
// subdivision vertex. lift() maps a kernel transversal back to the full
// graph (subdivision vertices are swapped for a non-anchor kernel endpoint,
// which lies on every cycle the subdivision vertex lies on) and adds the
// forced vertices. The lift is valid for *any* kernel transversal and
// size-preserving for optimal ones: OPT(G) = OPT(kernel) + |forced|.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/graph.hpp"
#include "graph/oct.hpp"

namespace compact::core {

/// Bumped whenever a reduction rule changes behaviour. Cached labelings are
/// keyed on this (see core/labelers.cpp): a cache written by one
/// kernelization version must never satisfy a request made under another.
inline constexpr int oct_reduction_version = 2;

struct oct_reduction_stats {
  std::size_t original_nodes = 0;
  std::size_t original_edges = 0;
  std::size_t kernel_nodes = 0;  // materialized, incl. subdivision vertices
  std::size_t kernel_edges = 0;
  std::size_t bipartite_stripped = 0;  // vertices removed with components
  std::size_t low_degree_removed = 0;  // degree-0/1 deletions
  std::size_t folds = 0;               // degree-2 eliminations
  std::size_t merges = 0;              // parallel same-parity edges dropped
  std::size_t forced = 0;              // vertices proven to be in a min OCT
  int rounds = 0;                      // strip/fold sweeps until fixpoint
};

/// Result of kernelizing one graph. The object owns the materialized kernel
/// and everything needed to lift a kernel transversal back.
class oct_kernel {
 public:
  [[nodiscard]] const graph::undirected_graph& kernel_graph() const {
    return kernel_;
  }
  [[nodiscard]] const oct_reduction_stats& stats() const { return stats_; }

  /// True when reductions solved the instance outright (empty kernel): the
  /// minimum transversal is exactly the forced set, lift({}) returns it.
  [[nodiscard]] bool solved() const { return kernel_.node_count() == 0; }

  /// Kernel id of the anchor, or -1 when there is none or it was reduced
  /// away.
  [[nodiscard]] graph::node_id kernel_anchor() const { return anchor_; }

  /// Map a transversal of kernel_graph() (indexed by kernel node id; may be
  /// empty when solved()) to a transversal of the original graph.
  [[nodiscard]] std::vector<bool> lift(
      const std::vector<bool>& kernel_transversal) const;

 private:
  friend oct_kernel kernelize_for_oct(const graph::undirected_graph& g,
                                      graph::node_id anchor);

  graph::undirected_graph kernel_;
  oct_reduction_stats stats_;
  std::size_t original_node_count_ = 0;
  // Kernel node id -> original vertex placed in the transversal when the
  // solver picks it (identity for surviving vertices, an endpoint for
  // subdivision vertices).
  std::vector<graph::node_id> original_of_kernel_;
  std::vector<graph::node_id> forced_;  // original ids, always in the lift
  graph::node_id anchor_ = -1;          // kernel id of the anchor
};

/// Run all reductions to a fixpoint and materialize the kernel; `anchor`
/// (-1 for none) is a vertex no transversal may contain. Publishes
/// oct_reduce.* metrics when enabled.
[[nodiscard]] oct_kernel kernelize_for_oct(const graph::undirected_graph& g,
                                           graph::node_id anchor = -1);

/// Drop-in replacement for graph::odd_cycle_transversal that kernelizes
/// first, solves on the kernel only, and lifts the transversal back. The
/// returned transversal is always valid for `g` and avoids options.anchor;
/// optimal is true when the kernel solve was optimal (reductions themselves
/// are exact), and lower_bound is the kernel's plus the forced vertices.
[[nodiscard]] graph::oct_result reduced_odd_cycle_transversal(
    const graph::undirected_graph& g, const graph::oct_options& options = {},
    oct_reduction_stats* stats_out = nullptr);

}  // namespace compact::core
