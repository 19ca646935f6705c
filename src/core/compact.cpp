#include "core/compact.hpp"

#include <algorithm>

#include "core/compose.hpp"
#include "core/pipeline.hpp"
#include "frontend/to_bdd.hpp"
#include "util/stopwatch.hpp"
#include "util/trace.hpp"
#include "util/watchdog.hpp"

namespace compact::core {
namespace {

resource_limits limits_of(const synthesis_options& options) {
  resource_limits limits;
  limits.memory_limit_bytes = options.memory_limit_bytes;
  limits.deadline_seconds = options.deadline_seconds;
  return limits;
}

/// Run the canonical pipeline over a fresh context and package the result.
/// `gc` is the manager's mutable alias when the flow owns it (null keeps
/// the caller's handles safe from stage-boundary sweeps).
synthesis_result run_pipeline(const bdd::manager& m, bdd::manager* gc,
                              const std::vector<bdd::node_handle>& roots,
                              const std::vector<std::string>& names,
                              const synthesis_options& options) {
  synthesis_context ctx;
  ctx.manager = &m;
  ctx.gc_manager = gc;
  ctx.roots = &roots;
  ctx.names = &names;
  ctx.options = options;
  ctx.telemetry = options.telemetry;
  ctx.cache = options.cache;
  run_synthesis_pipeline(ctx);
  return {std::move(ctx.mapped->design), std::move(ctx.labels),
          std::move(ctx.stats)};
}

}  // namespace

double synthesis_stats::stage_time(const std::string& stage) const {
  for (const stage_timing& t : stage_seconds)
    if (t.stage == stage) return t.seconds;
  return 0.0;
}

synthesis_result synthesize(const bdd::manager& m,
                            const std::vector<bdd::node_handle>& roots,
                            const std::vector<std::string>& names,
                            const synthesis_options& options) {
  return run_pipeline(m, nullptr, roots, names, options);
}

synthesis_result synthesize_gc(bdd::manager& m,
                               const std::vector<bdd::node_handle>& roots,
                               const std::vector<std::string>& names,
                               const synthesis_options& options) {
  return run_pipeline(m, &m, roots, names, options);
}

synthesis_result synthesize_network(const frontend::network& net,
                                    const synthesis_options& options) {
  // Install the watchdog before the SBDD build: that is where a runaway
  // netlist allocates, long before the first pipeline stage boundary.
  const resource_limit_scope watchdog(limits_of(options));
  bdd::manager m(net.input_count());
  const frontend::sbdd built = frontend::build_sbdd(net, m);
  return synthesize_gc(m, built.roots, built.names, options);
}

synthesis_result synthesize_separate_robdds(const frontend::network& net,
                                            const synthesis_options& options) {
  stopwatch clock;
  const resource_limit_scope watchdog(limits_of(options));
  const auto output_count = static_cast<int>(net.outputs().size());
  check(output_count > 0, "synthesize_separate_robdds: network has no outputs");

  // Duplicate per-output subgraphs (common in decoders and replicated
  // logic) are labeled once: every per-output pipeline consults this cache.
  labeling_cache local_cache;
  labeling_cache* cache =
      options.cache != nullptr ? options.cache : &local_cache;

  // Per-output synthesis. The time budget is split across outputs so the
  // total remains comparable to the SBDD flow's. Outputs fan out across
  // options.parallel workers — each builds its ROBDD in a private manager —
  // and the inner sites stay serial so only this level multiplies threads.
  // The telemetry sink and the cache are the only shared state; both are
  // thread-safe.
  synthesis_options per_output = options;
  per_output.time_limit_seconds = std::max(
      0.5, options.time_limit_seconds / static_cast<double>(output_count));
  per_output.parallel = {};
  per_output.cache = cache;

  stopwatch outputs_clock;
  const std::vector<synthesis_result> parts = parallel_map(
      options.parallel, static_cast<std::size_t>(output_count),
      [&](std::size_t o) {
        // One span per output: the fan-out shows up as parallel lanes in
        // the Chrome trace, keyed by the worker's tid.
        const trace_span span("output:" + net.outputs()[o].name, "synthesis");
        bdd::manager m(net.input_count());
        const std::vector<bdd::node_handle> roots{
            frontend::build_output(net, m, static_cast<int>(o))};
        const std::vector<std::string> names{net.outputs()[o].name};
        return synthesize_gc(m, roots, names, per_output);
      });
  const double outputs_seconds = outputs_clock.seconds();

  std::size_t total_nodes = 0;
  std::size_t total_edges = 0;
  int total_vh = 0;
  bool all_optimal = true;
  double worst_gap = 0.0;
  for (const synthesis_result& part : parts) {
    total_nodes += part.stats.graph_nodes;
    total_edges += part.stats.graph_edges;
    total_vh += part.stats.vh_count;
    all_optimal = all_optimal && part.stats.optimal;
    worst_gap = std::max(worst_gap, part.stats.relative_gap);
  }

  // Diagonal composition (Figure 8a): blocks stacked corner to corner, all
  // sharing one bottom input wordline (the merged '1' terminals).
  stopwatch compose_clock;
  const trace_span compose_span("compose", "synthesis");
  std::vector<const xbar::crossbar*> blocks;
  blocks.reserve(parts.size());
  for (const synthesis_result& part : parts) blocks.push_back(&part.design);
  xbar::crossbar composed = compose_diagonal(blocks, options.parallel);
  const double compose_seconds = compose_clock.seconds();

  synthesis_result result{std::move(composed), {}, {}};
  result.stats.graph_nodes = total_nodes;
  result.stats.graph_edges = total_edges;
  result.stats.vh_count = total_vh;
  result.stats.rows = result.design.rows();
  result.stats.columns = result.design.columns();
  result.stats.semiperimeter = result.design.semiperimeter();
  result.stats.max_dimension = result.design.max_dimension();
  result.stats.area = result.design.area();
  result.stats.power_proxy = result.design.active_device_count();
  result.stats.delay_steps = result.design.delay_steps();
  result.stats.optimal = all_optimal;
  result.stats.relative_gap = worst_gap;
  result.stats.stage_seconds.push_back({"synthesize_outputs", outputs_seconds});
  result.stats.stage_seconds.push_back({"compose", compose_seconds});
  const labeling_cache::counters counters = cache->stats();
  result.stats.cache_hits = counters.hits;
  result.stats.cache_misses = counters.misses;
  result.stats.synthesis_seconds = clock.seconds();

  if (options.telemetry != nullptr) {
    telemetry_event event;
    event.stage = "compose";
    event.seconds = compose_seconds;
    event.metric("blocks", static_cast<double>(parts.size()));
    event.metric("rows", result.stats.rows);
    event.metric("columns", result.stats.columns);
    event.metric("semiperimeter", result.stats.semiperimeter);
    event.metric("cache_hits", static_cast<double>(result.stats.cache_hits));
    event.metric("cache_misses",
                 static_cast<double>(result.stats.cache_misses));
    options.telemetry->emit(event);
  }
  return result;
}

}  // namespace compact::core
