// Graph-keyed memoization of VH-labelings.
//
// The NP-hard labeling stage dominates synthesis time, and the surrounding
// flows repeatedly pose *identical* subproblems: the separate-ROBDD flow
// labels one graph per output (duplicated output functions yield duplicated
// graphs), gamma sweeps re-run Method 1 as the warm start for every gamma,
// and benchmark harnesses synthesize the same circuits under several
// configurations. labeling_cache memoizes labeler results keyed by a
// canonical FNV-1a hash of everything a labeler observes: the graph
// structure (node count + edge list), the alignment-constrained vertex set,
// the labeler's registered name, and a labeler-provided "salt" encoding the
// options that affect its output. Two graphs share an entry exactly when
// they are structurally equal under the (deterministic) construction order —
// no isomorphism detection is attempted.
//
// The cache is thread-safe (the separate-ROBDD flow fans labeling out across
// pool workers) and collision-safe: the full canonical key string is stored
// alongside the digest and compared on lookup. Storage and eviction live in
// util/bounded_memo: set_capacity_bytes() caps the estimated content size
// and evicts least-recently-used entries, which compact-serve uses to share
// one process-wide cache across thousands of requests without unbounded
// growth. Eviction only turns future hits into recomputes of identical
// values — designs stay byte-identical.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/bdd_graph.hpp"
#include "core/labeling.hpp"
#include "util/bounded_memo.hpp"

namespace compact::core {

/// A fully resolved cache key: the 64-bit digest used for bucketing plus the
/// canonical encoding used to rule out collisions.
struct label_cache_key {
  std::uint64_t digest = 0;
  std::string canonical;
};

/// Build the key for labeling `graph` with the labeler registered as
/// `labeler_name` under the option encoding `option_salt` (see
/// labeler::cache_salt). The graph contributes its node count, its edge
/// list, and its aligned vertex set — the exact inputs every labeler sees;
/// edge literals and output names do not affect labelings and are excluded.
[[nodiscard]] label_cache_key make_label_cache_key(
    const bdd_graph& graph, const std::string& labeler_name,
    const std::string& option_salt);

/// A memoized labeler outcome. Captures everything synthesis_stats needs so
/// a cache hit is observationally identical to a recompute (the MIP
/// convergence trace is the one exception: a hit emits a cache event instead
/// of replaying solver milestones).
struct cached_labeling {
  labeling l;
  bool optimal = false;
  double relative_gap = 0.0;
  std::size_t oct_size = 0;   // Method 1: VH labels
  std::size_t promoted = 0;   // Method 1: always 0 (alignment is exact)
};

class labeling_cache {
 public:
  /// Returns the entry stored under `key`, or nullopt. Counts a hit or miss;
  /// a hit refreshes the entry's LRU recency.
  [[nodiscard]] std::optional<cached_labeling> find(
      const label_cache_key& key) const;

  /// Store `entry` under `key`. Racing stores of the same key keep the first
  /// value; labelers are deterministic, so racing values are identical. May
  /// evict least-recently-used entries when a capacity is set.
  void store(const label_cache_key& key, cached_labeling entry);

  using counters = bounded_memo<cached_labeling>::counters;
  [[nodiscard]] counters stats() const;

  /// Cap the estimated content bytes (the mem.cache.labeling gauge value).
  /// 0 = unbounded (default). Lowering below current content evicts now.
  void set_capacity_bytes(std::uint64_t capacity);
  [[nodiscard]] std::uint64_t capacity_bytes() const;

  void clear();

  labeling_cache();
  labeling_cache(const labeling_cache&) = delete;
  labeling_cache& operator=(const labeling_cache&) = delete;

 private:
  bounded_memo<cached_labeling> memo_;
};

}  // namespace compact::core
