// The VH-labeling engines of Section VI, behind a pluggable interface.
//
// Two engines ship with the library:
//
//  * label_minimal_semiperimeter — Method 1: minimum odd cycle transversal
//    (graph/oct), then a 2-coloring of the induced bipartite subgraph.
//    Extended here (beyond the paper's description) to honor alignment
//    exactly — an anchor vertex joined to every aligned node and never
//    deleted makes the transversal the minimum VH set under Eq. 7 — and to
//    balance R vs C via a per-component flip DP (the Fig. 6 mechanism).
//  * label_weighted — Method 2: the MIP of Eq. 4 with the alignment
//    constraints of Eq. 7, minimizing gamma*S + (1-gamma)*D, warm-started
//    from Method 1's labeling, or answered by it without a MIP when an
//    optimality certificate shows no labeling beats it.
//
// Both are also exposed as `labeler` implementations registered under "oct"
// and "mip" in a process-wide registry, which is how the synthesis pipeline
// (core/pipeline) dispatches the label stage. The registry also holds
// "staircase", the prior-work baseline [16]: the all-VH labeling (every
// node on a wordline and a bitline, S = 2n). Another labeling strategy is
// one register_labeler() call — no edits to the pipeline or to compact.cpp.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/bdd_graph.hpp"
#include "core/label_cache.hpp"
#include "core/labeling.hpp"
#include "graph/oct.hpp"
#include "milp/branch_and_bound.hpp"
#include "util/telemetry.hpp"

namespace compact::core {

struct oct_label_options {
  bool alignment = true;
  bool balance = true;  // balance R vs C among equal-semiperimeter colorings
  graph::oct_engine engine = graph::oct_engine::bnb;
  double time_limit_seconds = 60.0;
  /// Kernelize the graph (core/oct_reduce) before running the OCT engine.
  /// Exact: the lifted transversal has the same size as an unreduced solve.
  bool reduce = true;
  /// Worker threads for the underlying solver (ilp engine only; the
  /// combinatorial bnb engine is single-threaded). Never part of cache
  /// keys: results are bit-identical across thread counts.
  int threads = 1;
};

struct oct_label_result {
  labeling l;
  std::size_t oct_size = 0;  // VH labels (the aligned transversal)
  std::size_t promoted = 0;  // always 0: alignment is part of the OCT
  bool optimal = false;      // VH count proven minimum
  /// Certified gap (VH - LB) / (n + VH), LB the engine's lower bound on the
  /// VH count; 0 when optimal.
  double relative_gap = 0.0;
};

[[nodiscard]] oct_label_result label_minimal_semiperimeter(
    const bdd_graph& graph, const oct_label_options& options = {});

/// The graph Method 1 searches: G, plus under alignment one anchor vertex
/// (id `graph_nodes`) joined to every aligned node. A transversal of it
/// that avoids the anchor is exactly the VH set of a labeling satisfying
/// Eq. 7.
struct anchored_graph {
  graph::undirected_graph g;
  graph::node_id anchor = -1;  // -1 without alignment or aligned nodes
  std::size_t graph_nodes = 0;
};

[[nodiscard]] anchored_graph anchor_aligned_nodes(const bdd_graph& graph,
                                                  bool alignment);

/// Method 1's labeling for one VH set `in_transversal` (indexed by anchored
/// vertex id, anchor excluded): two-colour G + anchor - X, orient the
/// anchor's component so every aligned node takes H, and, when `balance`,
/// flip the other components to minimize D = max(R, C) (Fig. 6).
[[nodiscard]] labeling label_transversal(
    const anchored_graph& anchored, const std::vector<bool>& in_transversal,
    bool balance);

/// Search nodes one optimality-certificate attempt of label_weighted may
/// spend enumerating minimum transversals; an attempt cut off there leaves
/// the question to the MIP (docs/solver.md, "Method 2: the optimality
/// certificate").
inline constexpr std::uint64_t certificate_node_limit = 1000;

struct mip_label_options {
  double gamma = 0.5;
  bool alignment = true;
  double time_limit_seconds = 60.0;
  /// Warm start with Method 1's labeling (strongly recommended; guarantees
  /// an incumbent even when the solver times out at the root).
  bool warm_start_with_oct = true;
  double oct_time_limit_seconds = 30.0;
  /// Kernelize the OCT warm-start subproblem (core/oct_reduce). Part of the
  /// cache key (tie-breaking among equal-cost labelings can differ).
  bool reduce = true;
  /// Worker threads for the branch-and-bound solver. Never part of cache
  /// keys: the solver is deterministic across thread counts.
  int threads = 1;
  /// Optional hard budgets on the crossbar dimensions (Section III's
  /// constrained problem formulation). When no labeling fits,
  /// label_weighted throws infeasible_error; when the solver cannot decide
  /// within the time limit it throws a plain error.
  std::optional<int> max_rows;
  std::optional<int> max_columns;
  /// When set, the Method 1 warm start is looked up in / stored into this
  /// cache (keyed exactly like the standalone "oct" labeler), so gamma
  /// sweeps over one graph solve the OCT subproblem once.
  labeling_cache* cache = nullptr;
  /// When set, every solver incumbent/bound improvement is emitted as a
  /// "mip_trace" telemetry event in addition to being returned in `trace`.
  telemetry_sink* telemetry = nullptr;
};

struct mip_label_result {
  labeling l;
  bool optimal = false;
  double relative_gap = 0.0;
  double best_bound = 0.0;
  double objective = 0.0;
  long nodes_explored = 0;
  std::vector<milp::mip_trace_entry> trace;
};

[[nodiscard]] mip_label_result label_weighted(
    const bdd_graph& graph, const mip_label_options& options = {});

// ---------------------------------------------------------------------------
// Pluggable labeler interface + registry.

/// The option set the pipeline hands any labeler. Engine-specific options
/// are derived from these (see the "oct" and "mip" implementations); custom
/// labelers are free to ignore fields that do not apply to them.
struct labeler_request {
  double gamma = 0.5;
  bool alignment = true;
  double time_limit_seconds = 60.0;
  graph::oct_engine oct_engine = graph::oct_engine::bnb;
  std::optional<int> max_rows;
  std::optional<int> max_columns;
  /// Kernelize OCT instances before solving (core/oct_reduce). Affects
  /// cache keys (together with oct_reduction_version).
  bool reduce = true;
  /// Solver worker threads. Excluded from cache keys by contract: every
  /// labeler must return bit-identical results for any thread count.
  int threads = 1;
  /// Shared labeling cache for nested subproblems (e.g. the MIP labeler's
  /// OCT warm start); the pipeline separately memoizes the labeler's own
  /// result. May be null.
  labeling_cache* cache = nullptr;
  /// Sink for solver-milestone events (e.g. MIP convergence). May be null.
  telemetry_sink* telemetry = nullptr;
};

/// What the pipeline needs back from any labeling strategy.
struct labeler_result {
  labeling l;
  bool optimal = false;
  double relative_gap = 0.0;
  std::vector<milp::mip_trace_entry> trace;  // MIP convergence (Fig. 10)
  std::size_t oct_size = 0;                  // Method 1 diagnostics
  std::size_t promoted = 0;
};

/// A VH-labeling strategy. Implementations must be deterministic functions
/// of (graph, request) — the labeling cache and the thread-count-invariance
/// guarantees both rely on it — and safe to call concurrently.
class labeler {
 public:
  virtual ~labeler() = default;

  /// Registry key, e.g. "oct". Stable; also part of cache keys.
  [[nodiscard]] virtual std::string name() const = 0;

  /// Canonical encoding of every request field that can change this
  /// labeler's output. Two requests with equal salts (on the same graph)
  /// must produce identical labelings; used to key the labeling cache.
  [[nodiscard]] virtual std::string cache_salt(
      const labeler_request& request) const = 0;

  [[nodiscard]] virtual labeler_result label(
      const bdd_graph& graph, const labeler_request& request) const = 0;
};

/// Register `implementation` under its name(). Registering a name twice
/// replaces the previous implementation (tests use this to stub labelers).
/// Thread-safe.
void register_labeler(std::unique_ptr<labeler> implementation);

/// Look up a registered labeler; throws compact::error (listing the
/// registered names) when `name` is unknown. The built-in "oct", "mip" and
/// "staircase" labelers are registered on first use. The returned reference
/// stays valid for the process lifetime unless the name is re-registered.
[[nodiscard]] const labeler& find_labeler(const std::string& name);

/// Names currently registered, sorted.
[[nodiscard]] std::vector<std::string> registered_labeler_names();

/// Canonical option salts for the built-in engines; exposed so nested uses
/// (the MIP labeler's warm start) key the cache identically to a standalone
/// "oct" run with the same options.
[[nodiscard]] std::string oct_cache_salt(const oct_label_options& options);
[[nodiscard]] std::string mip_cache_salt(const mip_label_options& options);

}  // namespace compact::core
