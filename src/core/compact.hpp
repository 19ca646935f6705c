// COMPACT — the top-level synthesis API (Figure 3).
//
//   Boolean function (network / BDD roots)
//     -> graph pre-processing          (core/bdd_graph)
//     -> VH-labeling                   (core/labelers: registry dispatch)
//     -> crossbar mapping              (core/mapping)
//     -> crossbar design D             (xbar/crossbar)
//
// The flow runs as an explicit pass pipeline (core/pipeline): named stages
// over one synthesis_context, per-stage wall-time accounting, structured
// telemetry events into a pluggable sink, and graph-keyed labeling
// memoization through core/label_cache.
//
// Two entry points: synthesize() maps a shared BDD built in one manager
// (the paper's SBDD flow, Section VII-A), and synthesize_separate_robdds()
// reproduces the prior multi-output strategy — one ROBDD per output, each
// mapped independently and composed along the diagonal sharing the input
// wordline (Figure 8a).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bdd/manager.hpp"
#include "core/bdd_graph.hpp"
#include "core/label_cache.hpp"
#include "core/labelers.hpp"
#include "core/labeling.hpp"
#include "frontend/network.hpp"
#include "util/telemetry.hpp"
#include "util/thread_pool.hpp"
#include "xbar/crossbar.hpp"

namespace compact::core {

class partition_cache;  // core/partition

enum class labeling_method {
  minimal_semiperimeter,  // Method 1: OCT + 2-coloring (gamma = 1 semantics)
  weighted_mip,           // Method 2: MIP on gamma*S + (1-gamma)*D
};

struct synthesis_options {
  labeling_method method = labeling_method::weighted_mip;
  /// Registry name of the labeling strategy (core/labelers). Empty = derive
  /// from `method` ("oct" / "mip"); set it to dispatch a custom registered
  /// labeler without touching this struct's enum.
  std::string labeler;
  double gamma = 0.5;
  bool alignment = true;
  double time_limit_seconds = 60.0;
  graph::oct_engine oct_engine = graph::oct_engine::bnb;
  /// Hard budgets on the crossbar dimensions (Section III). The weighted_mip
  /// method enforces them inside the solver; for every method the map pass
  /// re-checks the mapped design and throws infeasible_error naming the
  /// overflow dimension when a budget is exceeded (unless `partition` below
  /// splits the design across arrays instead).
  std::optional<int> max_rows;
  std::optional<int> max_columns;
  /// Split designs that exceed the budgets across multiple crossbar arrays
  /// (core/partition) instead of failing. Read by the
  /// synthesize_partitioned entry points and the api facade; the
  /// single-array entry points above ignore it except to suppress the
  /// overflow guard for per-fragment runs.
  bool partition = false;
  /// Partition-plan memoization shared across synthesize_partitioned calls
  /// (benchmark sweeps), keyed like the labeling cache. Non-owning; may be
  /// null. Thread-safe.
  partition_cache* partition_memo = nullptr;
  /// Kernelize OCT instances (core/oct_reduce) before the solvers run:
  /// bipartite components are stripped and degree-<=2 vertices eliminated,
  /// with the transversal lifted back exactly. On by default; disable only
  /// to A/B the reductions (cache keys include this flag).
  bool oct_reduction = true;
  /// Used by synthesize_separate_robdds to fan per-output ROBDD synthesis
  /// and block composition out across workers, and by the labeling stage
  /// for the parallel branch-and-bound solver. Results are deterministic
  /// for any thread count (modulo the wall-clock solver time limits, which
  /// are timing-dependent even serially).
  parallel_options parallel;
  /// Labeling memoization cache shared across synthesize() calls (gamma
  /// sweeps, benchmark re-runs). Non-owning; may be null. Thread-safe. The
  /// separate-ROBDD and partitioned flows fall back to a run-local cache
  /// when it is null, so repeated subgraphs are labeled once per run.
  labeling_cache* cache = nullptr;
  /// Sink for per-stage telemetry events (see core/pipeline for the event
  /// schema). Non-owning; may be null. Must be thread-safe when the
  /// separate-ROBDD flow fans out.
  telemetry_sink* telemetry = nullptr;
  /// Hard byte budget for the run, enforced by the ambient resource
  /// watchdog (util/watchdog) against the memtrack process-live total and
  /// sampled at pipeline stage boundaries, branch-and-bound rounds and BDD
  /// arena growth. 0 = unlimited. A breach throws resource_limit_error
  /// (kind memory); crossing ~85% of the budget triggers load shedding
  /// (stage-boundary GC plus labeling-cache eviction) first. Setting a
  /// budget force-enables memtrack for the run. The outermost entry point
  /// installs the watchdog; nested flows share its budget.
  std::uint64_t memory_limit_bytes = 0;
  /// Wall-clock deadline for the run, enforced at the same sampling points;
  /// 0 = none. A breach throws resource_limit_error (kind deadline). Unlike
  /// time_limit_seconds (a solver heuristic budget that degrades answer
  /// quality gracefully), the deadline is a hard failure.
  double deadline_seconds = 0.0;
};

/// Wall time of one named pipeline stage.
struct stage_timing {
  std::string stage;
  double seconds = 0.0;
};

struct synthesis_stats {
  std::size_t graph_nodes = 0;  // n: BDD nodes after 0-terminal removal
  std::size_t graph_edges = 0;
  int vh_count = 0;             // k: nodes mapped to a wordline AND a bitline
  int rows = 0;
  int columns = 0;
  int semiperimeter = 0;
  int max_dimension = 0;
  long long area = 0;
  int power_proxy = 0;          // active (literal-carrying) memristors
  int delay_steps = 0;          // rows + 1
  /// Per-stage wall times in pipeline order; synthesis_seconds is the
  /// end-to-end total (stages plus orchestration overhead).
  std::vector<stage_timing> stage_seconds;
  double synthesis_seconds = 0.0;
  /// Labeling-cache traffic observed by this run (0/0 when no cache).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  bool optimal = false;         // labeling proven optimal within the limit
  /// Certified gap at termination: the MIP's for Method 2, and
  /// (VH - LB) / (n + VH) for Method 1, LB its OCT lower bound.
  double relative_gap = 0.0;
  std::vector<milp::mip_trace_entry> trace;  // MIP convergence (Fig. 10)
  /// Multi-array accounting (1 / 0 / 0 for single-array designs). For
  /// partitioned designs, rows/columns above are the largest fragment's
  /// while semiperimeter, area and power_proxy are totals over fragments.
  int arrays = 1;               // fragments in the mapped design
  int cut_edges = 0;            // SBDD edges crossing fragment boundaries
  int bridges = 0;              // inter-array net welds (one per port)

  /// Wall time of the named stage, or 0 when it did not run.
  [[nodiscard]] double stage_time(const std::string& stage) const;
};

struct synthesis_result {
  xbar::crossbar design;
  labeling labels;
  synthesis_stats stats;
};

/// Map the shared BDD rooted at `roots` (named `names`) onto one crossbar.
/// The manager is const and is never garbage-collected through this entry
/// point — the caller may hold handles outside `roots`.
[[nodiscard]] synthesis_result synthesize(
    const bdd::manager& m, const std::vector<bdd::node_handle>& roots,
    const std::vector<std::string>& names,
    const synthesis_options& options = {});

/// synthesize() for callers that cede the manager's contents to the flow:
/// mark-and-sweep runs at every pipeline stage boundary with `roots` (plus
/// protected handles) as the live set, freeing the build's intermediate
/// nodes. Handles in `roots` stay valid; any other handle the caller holds
/// may be swept. Designs are bit-identical to the const overload's.
[[nodiscard]] synthesis_result synthesize_gc(
    bdd::manager& m, const std::vector<bdd::node_handle>& roots,
    const std::vector<std::string>& names,
    const synthesis_options& options = {});

/// Convenience: build the SBDD of `net` (identity variable order) and map it.
[[nodiscard]] synthesis_result synthesize_network(
    const frontend::network& net, const synthesis_options& options = {});

/// Prior multi-output strategy: one ROBDD per output in its own manager,
/// each synthesized independently, then composed along the diagonal with a
/// shared input wordline. Stats are those of the composed design; the
/// per-output node counts are summed (Table III's "merged ROBDDs" column).
/// Duplicate per-output subgraphs are labeled once through the labeling
/// cache (options.cache, or a run-local one when it is null).
[[nodiscard]] synthesis_result synthesize_separate_robdds(
    const frontend::network& net, const synthesis_options& options = {});

}  // namespace compact::core
