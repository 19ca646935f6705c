// Multi-array partitioning (ROADMAP item 3: "too big for one array").
//
// When hard `max_rows x max_columns` budgets are smaller than the SBDD, no
// single-crossbar labeling can fit — CONTRA (arXiv:2009.00881) and the
// constrained technology mapper of arXiv:1809.08195 partition the logic
// across several arrays instead. The partition shape of synthesize()
// (core/compact) splits the SBDD graph into an ordered list of fragments,
// each guaranteed to fit the budgets under *any* feasible VH-labeling, runs
// every fragment through the label and map passes, and stitches the results
// into one xbar::partitioned_design with the functions below.
//
// The fit guarantee needs no retry loop: a fragment of k vertices maps to at
// most k rows (|H| + |VH| <= k) and at most k columns, so packing at most
// capacity = min(max_rows, max_columns) vertices per fragment fits every
// feasible labeling. A cut edge (u, v) with u in an earlier fragment places
// its device in v's fragment, attached to a local *port* vertex mirroring u;
// an explicit bridge connection welds u's home nanowire and the port's
// nanowire into one electrical net. The union conduction graph is then
// isomorphic to the single-array design's, so sneak-path semantics are
// preserved exactly (verified symbolically by verify's stitched checker).
//
// Plans are deterministic (greedy interval packing over the SBDD vertex
// order plus bounded cut-reducing boundary refinement) and cache-keyed like
// labelings: identical (graph, budgets) pairs reuse the stored plan.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/bdd_graph.hpp"
#include "core/label_cache.hpp"
#include "core/mapping.hpp"
#include "util/thread_annotations.hpp"
#include "xbar/partitioned.hpp"

namespace compact::core {

struct partition_options {
  /// Hard per-array budgets; at least one must be set for a plan with more
  /// than one fragment to ever be produced.
  std::optional<int> max_rows;
  std::optional<int> max_columns;
  /// Run the deterministic boundary-refinement sweeps that shift fragment
  /// boundaries to reduce the cut. Off only for A/B experiments (the cache
  /// key includes this flag).
  bool refine = true;
};

struct partition_plan {
  /// Fragment index per SBDD graph vertex; monotone non-decreasing in the
  /// vertex order (fragments are intervals).
  std::vector<int> fragment_of;
  int fragment_count = 1;
  /// min over the set budgets (0 when neither is set = unbounded).
  int capacity = 0;
  /// Indices into graph.g.edges() whose endpoints land in different
  /// fragments.
  std::vector<std::size_t> cut_edges;
};

/// Thread-safe memoization of partition plans, keyed like the labeling
/// cache: an FNV-1a digest over the graph structure and the partition
/// options, with the canonical string stored to rule out collisions.
/// Storage and LRU eviction live in util/bounded_memo (account
/// mem.cache.partition, metrics partition_cache.*); see labeling_cache.
class partition_cache {
 public:
  [[nodiscard]] std::optional<partition_plan> find(
      const label_cache_key& key) const;
  void store(const label_cache_key& key, partition_plan plan);

  using counters = bounded_memo<partition_plan>::counters;
  [[nodiscard]] counters stats() const;

  /// Cap the estimated content bytes; 0 = unbounded (default).
  void set_capacity_bytes(std::uint64_t capacity);
  [[nodiscard]] std::uint64_t capacity_bytes() const;

  void clear();

  partition_cache();
  partition_cache(const partition_cache&) = delete;
  partition_cache& operator=(const partition_cache&) = delete;

 private:
  bounded_memo<partition_plan> memo_;
};

/// Cache key for partitioning `graph` under `options` (graph node count +
/// edge list + the budgets/refine flag + the algorithm version).
[[nodiscard]] label_cache_key make_partition_cache_key(
    const bdd_graph& graph, const partition_options& options);

/// Compute (or recall) the plan. Throws infeasible_error when a budget is
/// below 1, or when some vertex plus its mandatory bridge ports cannot fit
/// the capacity — the greedy packing has no fragment that can hold it.
[[nodiscard]] partition_plan plan_partition(const bdd_graph& graph,
                                            const partition_options& options,
                                            partition_cache* cache = nullptr);

/// One fragment's labeled graph plus the bookkeeping linking it back to the
/// global SBDD graph.
struct fragment_graph {
  bdd_graph graph;
  /// Local vertex -> global vertex (members first, then ports).
  std::vector<graph::node_id> global_of;
  std::size_t member_count = 0;
  /// Port vertices: local mirrors of earlier-fragment vertices that cut
  /// edges attach to.
  struct port {
    graph::node_id local;
    graph::node_id global;
    int home_fragment;
  };
  std::vector<port> ports;
};

/// Split the SBDD graph along `plan`: member vertices keep their intra-
/// fragment edges, each cut edge becomes a local edge from its later
/// endpoint to a port vertex mirroring the earlier endpoint (one port per
/// (vertex, fragment) pair). The terminal and each output binding land only
/// in their home fragments; constant outputs land in fragment 0.
[[nodiscard]] std::vector<fragment_graph> build_fragment_graphs(
    const bdd_graph& graph, const partition_plan& plan);

/// Stitch mapped fragments into one multi-array design: the fragments in
/// order, then one bridge per port welding the port's nanowire to its home
/// vertex's nanowire. `mapped` is parallel to `fragments`. Fragments
/// without the '1' terminal drop the input-row designation map_to_crossbar
/// defaulted in: bridges drive them, not the input wordline.
[[nodiscard]] xbar::partitioned_design stitch_fragments(
    const bdd_graph& graph, const std::vector<fragment_graph>& fragments,
    std::vector<mapping_result> mapped);

}  // namespace compact::core
