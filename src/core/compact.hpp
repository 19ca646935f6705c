// COMPACT — the top-level synthesis API (Figure 3).
//
//   Boolean function (network / BDD roots)
//     -> graph pre-processing          (core/bdd_graph)
//     -> VH-labeling                   (core/labelers: registry dispatch)
//     -> crossbar mapping              (core/mapping)
//     -> crossbar design D             (xbar/crossbar)
//
// synthesize(synthesis_context&) (core/pipeline) is the one synthesis body.
// It runs the pipeline shape the options select over one context:
//
//   default            build_graph -> label -> map: one shared BDD (SBDD)
//                      on one crossbar, the paper's flow (Section VII-A);
//   separate_robdds    synthesize_outputs -> compose: the prior
//                      multi-output strategy, one ROBDD per output mapped
//                      on its own and composed along the diagonal sharing
//                      the input wordline (Figure 8a);
//   partition          build_graph -> partition -> fragments: the SBDD
//                      graph split across several arrays (core/partition,
//                      after CONTRA, arXiv:2009.00881).
//
// The two synthesize() overloads below are thin wrappers for callers
// without a context.
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
#include "xbar/partitioned.hpp"

namespace compact::core {

class partition_cache;  // core/partition

struct synthesis_options {
  /// Registry name of the labeling strategy (core/labelers): "mip"
  /// (Method 2), "oct" (Method 1), "staircase" (the prior-work baseline),
  /// or any name registered with the labeler registry.
  std::string labeler = "mip";
  double gamma = 0.5;
  bool alignment = true;
  double time_limit_seconds = 60.0;
  /// Hard budgets on the crossbar dimensions (Section III). The "mip"
  /// labeler enforces them inside the solver; for every labeler the map
  /// pass re-checks the mapped design and throws infeasible_error naming
  /// the overflow dimension when a budget is exceeded. Under `partition`
  /// they are the per-array budgets instead: fragments are packed to fit
  /// and labeled without them.
  std::optional<int> max_rows;
  std::optional<int> max_columns;
  /// Split designs that exceed the budgets across multiple crossbar arrays
  /// (core/partition) instead of failing. Incompatible with
  /// separate_robdds.
  bool partition = false;
  /// Map one ROBDD per output and compose the blocks along the diagonal
  /// instead of mapping one shared BDD. Needs the network
  /// (synthesis_context::network): every output's ROBDD is built in a
  /// manager of its own.
  bool separate_robdds = false;
  /// Partition-plan memoization shared across partitioned runs (benchmark
  /// sweeps), keyed like the labeling cache. Non-owning; may be null.
  /// Thread-safe.
  partition_cache* partition_memo = nullptr;
  /// Kernelize OCT instances (core/oct_reduce) before the solvers run:
  /// bipartite components are stripped and degree-<=2 vertices eliminated,
  /// with the transversal lifted back exactly. On by default; disable only
  /// to A/B the reductions (cache keys include this flag).
  bool oct_reduction = true;
  /// Workers for the fan-out over outputs (separate_robdds) or fragments
  /// (partition), and otherwise for the parallel branch-and-bound solver.
  /// Results are deterministic for any thread count (modulo the wall-clock
  /// solver time limits, which are timing-dependent even serially).
  parallel_options parallel;
  /// Labeling memoization cache shared across runs (gamma sweeps, benchmark
  /// re-runs). Non-owning; may be null. Thread-safe. The separate-ROBDD and
  /// multi-fragment runs fall back to a run-local cache when it is null, so
  /// repeated subgraphs are labeled once per run.
  labeling_cache* cache = nullptr;
  /// Sink for per-stage telemetry events (see core/pipeline for the event
  /// schema). Non-owning; may be null. Must be thread-safe when a run fans
  /// out.
  telemetry_sink* telemetry = nullptr;
  /// Hard byte budget for the run, enforced by the ambient resource
  /// watchdog (util/watchdog) against the memtrack process-live total and
  /// sampled at pipeline stage boundaries, branch-and-bound rounds and BDD
  /// arena growth. 0 = unlimited. A breach throws resource_limit_error
  /// (kind memory); crossing ~85% of the budget triggers load shedding
  /// (stage-boundary GC plus labeling-cache eviction) first. Setting a
  /// budget force-enables memtrack for the run. The outermost entry point
  /// installs the watchdog; nested runs share its budget.
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
  /// Per-stage wall times in the order the stages finished (a stage run
  /// inside another lands before it); synthesis_seconds is the end-to-end
  /// total (stages plus orchestration overhead).
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
  /// The design when it fits one array; unused when `partitioned` is set.
  xbar::crossbar design{1, 1};
  /// Set only for multi-array designs (a partition plan of two or more
  /// fragments).
  std::optional<xbar::partitioned_design> partitioned;
  /// The labeling of the mapped graph; empty for separate-ROBDD and
  /// multi-array runs, whose blocks and fragments are labeled one by one.
  labeling labels;
  synthesis_stats stats;
};

/// Build the SBDD of `net` (identity variable order) and synthesize it in
/// the shape `options` selects. The run owns the manager, so it is
/// garbage-collected at every stage boundary.
[[nodiscard]] synthesis_result synthesize(
    const frontend::network& net, const synthesis_options& options = {});

/// Synthesize the shared BDD rooted at `roots` (named `names`). The manager
/// is const and is never garbage-collected: the caller may hold handles
/// outside `roots`. Needs a network when options.separate_robdds is set,
/// so that shape is rejected here.
[[nodiscard]] synthesis_result synthesize(
    const bdd::manager& m, const std::vector<bdd::node_handle>& roots,
    const std::vector<std::string>& names,
    const synthesis_options& options = {});

}  // namespace compact::core
