// Reduced Ordered Binary Decision Diagram (ROBDD) package.
//
// This is the repo's substitute for CUDD/ABC in the paper's flow. Multiple
// roots built inside one manager share subgraphs through the unique table,
// which is exactly the *shared BDD* (SBDD) of Section VII-A; building each
// output in its own manager yields the separate-ROBDD baseline.
//
// Design notes (see docs/bdd_engine.md for the full engine description):
//  * Nodes are referenced by dense 32-bit handles; handles 0 and 1 are the
//    constant terminals. Handles never move: storage is a chunked arena of
//    struct-of-arrays blocks, so growth allocates a new chunk instead of
//    relocating live nodes, and garbage collection recycles slots in place.
//  * The unique table is open-addressing with linear probing over handles;
//    node fields live only in the arena, so a probe costs one arena read
//    per step and the table itself is a flat array of 4-byte entries.
//  * ite() is memoized through a bounded direct-mapped computed table
//    (lossy: colliding entries evict, counted in statistics). Losing an
//    entry only costs time — results are canonical either way.
//  * Garbage collection is mark-and-sweep from explicitly protected roots
//    (plus per-call extra roots). Live handles are stable across
//    collections; swept handles are recycled lowest-first, so allocation
//    stays deterministic. There is no reference counting — the synthesis
//    pipeline collects at stage boundaries where the live set is exactly
//    the output roots.
//  * No complement edges: the BDD-to-crossbar analogy maps every edge to a
//    physical memristor programmed with a literal, so edges must carry plain
//    (variable, polarity) labels.
//  * Canonicity invariant: low != high for every stored node, and children
//    always have strictly larger variable levels.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/error.hpp"

namespace compact::bdd {

using node_handle = std::uint32_t;

inline constexpr node_handle false_handle = 0;
inline constexpr node_handle true_handle = 1;

/// A decision node: tests `var`, follows `high` when the variable is 1 and
/// `low` when it is 0. Terminals use var = terminal_var.
struct node {
  std::int32_t var = 0;
  node_handle low = 0;
  node_handle high = 0;
};

inline constexpr std::int32_t terminal_var = INT32_MAX;

class manager {
 public:
  /// Operation counters, maintained unconditionally (plain increments on a
  /// single-threaded structure — the cost is a few instructions per ite()
  /// call and never changes any computed function).
  struct statistics {
    std::uint64_t ite_calls = 0;          // non-terminal ite() invocations
    std::uint64_t ite_cache_hits = 0;     // computed-table hits
    std::uint64_t ite_cache_misses = 0;   // recursions actually performed
    std::uint64_t ite_cache_evictions = 0;  // entries lost to collisions
    std::uint64_t unique_inserts = 0;     // fresh nodes created
    std::uint64_t max_ite_depth = 0;      // deepest recursive apply chain
    std::uint64_t restrict_calls = 0;     // top-level restrict_var() calls
    std::uint64_t restrict_cache_hits = 0;  // per-call memo hits
    std::uint64_t gc_runs = 0;            // collect_garbage() invocations
    std::uint64_t gc_reclaimed = 0;       // total node slots swept
  };

  struct gc_result {
    std::size_t live = 0;       // nodes surviving the sweep (incl. terminals)
    std::size_t reclaimed = 0;  // slots returned to the free list
  };

  /// `variable_count` fixes the support (levels 0..variable_count-1).
  /// The variable order is the level order; level 0 is tested first.
  /// `node_limit` caps the number of *live* nodes (terminals included);
  /// exceeding it throws compact::error and leaves the manager untouched,
  /// so callers can catch the overflow and keep using every handle they
  /// already hold.
  explicit manager(int variable_count);
  manager(int variable_count, std::size_t node_limit);
  /// Releases this manager's bytes from the memtrack accounts (the arena,
  /// unique table and computed table it charged while accounting was on).
  ~manager();
  manager(const manager&) = delete;
  manager& operator=(const manager&) = delete;

  [[nodiscard]] int variable_count() const { return variable_count_; }
  /// Live nodes (terminals included). Shrinks when collect_garbage sweeps.
  [[nodiscard]] std::size_t node_table_size() const { return live_count_; }
  /// Allocated arena slots (monotone; swept slots are recycled, not freed).
  [[nodiscard]] std::size_t node_capacity() const { return slot_count_; }
  [[nodiscard]] const statistics& stats() const { return stats_; }
  /// Load factor of the unique (node) hash table.
  [[nodiscard]] double unique_table_load() const {
    return table_.empty() ? 0.0
                          : static_cast<double>(table_entries_) /
                                static_cast<double>(table_.size());
  }

  /// Add this manager's counters to the global metrics registry ("bdd.*")
  /// and update the table-size gauges. Publishes the delta since the last
  /// publish_metrics() call on this manager, so it is safe to call at every
  /// pipeline stage boundary. The recursion-depth histogram observes the
  /// per-interval watermark (deepest chain since the previous publish), so
  /// repeated publishes never double-count one deep call. No-op when
  /// metrics are disabled.
  void publish_metrics() const;

  // --- garbage collection -------------------------------------------------
  /// Registered roots survive every collection (protect twice = unprotect
  /// twice; the registry counts).
  void protect(node_handle f);
  void unprotect(node_handle f);
  /// Mark-and-sweep: every node unreachable from the protected roots and
  /// `extra_roots` is swept, its slot recycled for future allocations.
  /// Live handles (and everything they compute) are unaffected. Clears the
  /// computed-table entries and sat-count memos that mention swept nodes.
  /// A collection over the previous one's roots, with no node made and no
  /// root unprotected in between, has nothing to reclaim and returns at
  /// once (pipeline stage boundaries after the first are such collections).
  gc_result collect_garbage(const std::vector<node_handle>& extra_roots = {});

  // --- leaf and literal constructors ------------------------------------
  [[nodiscard]] node_handle constant(bool value) const {
    return value ? true_handle : false_handle;
  }
  /// The single-node function `x_index`.
  [[nodiscard]] node_handle var(int index);
  /// The single-node function `!x_index`.
  [[nodiscard]] node_handle nvar(int index);

  // --- structure ---------------------------------------------------------
  [[nodiscard]] bool is_terminal(node_handle f) const { return f <= 1; }
  /// Checked field access (bounds + liveness); returns a copy because the
  /// struct-of-arrays arena stores no contiguous node objects.
  [[nodiscard]] node at(node_handle f) const;
  /// Canonical insert for cross-manager copies: `low`/`high` must already
  /// be canonical handles in *this* manager with levels strictly greater
  /// than `var` (checked). Equivalent to — but much cheaper than —
  /// ite(var(v), high, low).
  [[nodiscard]] node_handle canonical_node(std::int32_t var, node_handle low,
                                           node_handle high);

  // --- boolean operations -------------------------------------------------
  [[nodiscard]] node_handle ite(node_handle f, node_handle g, node_handle h);
  [[nodiscard]] node_handle apply_not(node_handle f);
  [[nodiscard]] node_handle apply_and(node_handle f, node_handle g);
  [[nodiscard]] node_handle apply_or(node_handle f, node_handle g);
  [[nodiscard]] node_handle apply_xor(node_handle f, node_handle g);
  [[nodiscard]] node_handle apply_xnor(node_handle f, node_handle g);

  /// f with variable `index` fixed to `value` (Shannon cofactor).
  /// Memoized per call: linear in the DAG size, not the path count.
  [[nodiscard]] node_handle restrict_var(node_handle f, int index, bool value);
  /// Existential quantification of variable `index`.
  [[nodiscard]] node_handle exists(node_handle f, int index);
  /// Universal quantification of variable `index`.
  [[nodiscard]] node_handle forall(node_handle f, int index);

  // --- queries -------------------------------------------------------------
  /// Evaluate under a complete assignment (indexed by variable).
  [[nodiscard]] bool evaluate(node_handle f,
                              const std::vector<bool>& assignment) const;
  /// Number of satisfying assignments over all `variable_count()` variables.
  [[nodiscard]] double sat_count(node_handle f) const;
  /// True iff the two handles denote the same function (canonical compare).
  [[nodiscard]] bool same_function(node_handle f, node_handle g) const {
    return f == g;
  }

 private:
  // Arena geometry: 8192 nodes per chunk keeps each chunk's three arrays
  // (~96 KiB total) L2-resident while bounding growth steps; chunks never
  // move, so handles are stable for the life of the manager. Chunks are
  // allocated uninitialized: make_node writes every slot below slot_count_
  // before anything reads it, and nothing reads at or past slot_count_, so
  // a small manager touches only the pages its nodes occupy.
  static constexpr int chunk_shift = 13;
  static constexpr std::size_t chunk_capacity = std::size_t{1} << chunk_shift;
  static constexpr std::size_t chunk_mask = chunk_capacity - 1;
  struct chunk {
    std::int32_t var[chunk_capacity];
    node_handle low[chunk_capacity];
    node_handle high[chunk_capacity];
  };

  [[nodiscard]] std::int32_t var_of(node_handle f) const {
    return chunks_[f >> chunk_shift]->var[f & chunk_mask];
  }
  [[nodiscard]] node_handle low_of(node_handle f) const {
    return chunks_[f >> chunk_shift]->low[f & chunk_mask];
  }
  [[nodiscard]] node_handle high_of(node_handle f) const {
    return chunks_[f >> chunk_shift]->high[f & chunk_mask];
  }
  [[nodiscard]] std::int32_t level(node_handle f) const { return var_of(f); }

  [[nodiscard]] bool is_live(node_handle f) const {
    return (live_bits_[f >> 6] >> (f & 63)) & 1;
  }
  void set_live(node_handle f) { live_bits_[f >> 6] |= std::uint64_t{1} << (f & 63); }
  void clear_live(node_handle f) {
    live_bits_[f >> 6] &= ~(std::uint64_t{1} << (f & 63));
  }

  [[nodiscard]] node_handle make_node(std::int32_t var, node_handle low,
                                      node_handle high);
  [[nodiscard]] node_handle allocate_slot();
  void grow_unique_table();
  void insert_unique(node_handle h);  // raw insert, no growth check
  [[nodiscard]] node_handle restrict_rec(node_handle f, int index, bool value);

  /// Direct-mapped computed-table entry; f == false_handle marks an empty
  /// slot (terminal f never reaches the cache — ite() resolves it first).
  struct ite_entry {
    node_handle f = false_handle;
    node_handle g = false_handle;
    node_handle h = false_handle;
    node_handle result = false_handle;
  };
  void ite_cache_insert(node_handle f, node_handle g, node_handle h,
                        node_handle result);
  void maybe_grow_ite_cache();
  /// Reconcile this manager's container footprints into the process-wide
  /// memtrack accounts (mem.bdd.*). Called at the structural growth points
  /// and after GC; near-zero cost while memtrack is disabled.
  void account_memory();

  int variable_count_ = 0;
  std::size_t node_limit_ = 0;
  statistics stats_;
  mutable statistics published_;  // totals already pushed to the registry
  /// Deepest ite() chain since the last publish_metrics(); the histogram
  /// observes this watermark (not the lifetime max) to avoid double counts.
  mutable std::uint64_t interval_max_ite_depth_ = 0;
  std::uint64_t ite_depth_ = 0;  // current recursion depth inside ite()

  // Node arena (struct of arrays, chunked) + liveness bookkeeping.
  std::vector<std::unique_ptr<chunk>> chunks_;
  std::size_t slot_count_ = 0;  // allocated slots (terminals included)
  std::size_t live_count_ = 0;  // live nodes (terminals included)
  std::vector<std::uint64_t> live_bits_;
  std::vector<node_handle> free_;  // descending; pop_back reuses lowest first

  // Unique table: open addressing, linear probing, power-of-two capacity.
  // Entries are handles (false_handle = empty; terminals are never stored).
  std::vector<node_handle> table_;
  std::size_t table_entries_ = 0;

  // Bounded computed table for ite(); grows by doubling under sustained
  // miss pressure up to a hard cap, then stays put and evicts.
  std::vector<ite_entry> ite_cache_;
  std::uint64_t ite_misses_at_resize_ = 0;

  std::unordered_map<node_handle, node_handle> restrict_memo_;
  std::unordered_map<node_handle, std::uint32_t> protected_;
  mutable std::unordered_map<node_handle, double> sat_cache_;

  // The last collection's unique_inserts count and extra roots; unprotect()
  // resets the count, as it may leave garbage behind.
  std::uint64_t swept_inserts_ = ~std::uint64_t{0};
  std::vector<node_handle> swept_roots_;

  // Bytes this manager last charged to each memtrack account, reconciled by
  // account_memory() (zero whenever memtrack is disabled).
  std::uint64_t arena_bytes_accounted_ = 0;
  std::uint64_t table_bytes_accounted_ = 0;
  std::uint64_t ite_bytes_accounted_ = 0;
};

}  // namespace compact::bdd
