#include "core/pipeline.hpp"

#include <utility>

#include "core/partition.hpp"
#include "util/error.hpp"
#include "util/flight_recorder.hpp"
#include "util/memtrack.hpp"
#include "util/metrics.hpp"
#include "util/stopwatch.hpp"
#include "util/trace.hpp"
#include "util/watchdog.hpp"

namespace compact::core {
namespace {

void run_build_graph(synthesis_context& ctx) {
  check(ctx.manager != nullptr && ctx.roots != nullptr && ctx.names != nullptr,
        "pipeline: build_graph needs manager, roots and names");
  ctx.graph = build_bdd_graph(*ctx.manager, *ctx.roots, *ctx.names);
  ctx.stats.graph_nodes = ctx.graph.g.node_count();
  ctx.stats.graph_edges = ctx.graph.g.edge_count();
  ctx.metric("graph_nodes", static_cast<double>(ctx.stats.graph_nodes));
  ctx.metric("graph_edges", static_cast<double>(ctx.stats.graph_edges));
  ctx.metric("outputs", static_cast<double>(ctx.graph.outputs.size()));
  ctx.metric("constant_outputs",
             static_cast<double>(ctx.graph.constant_outputs.size()));
}

void run_label(synthesis_context& ctx) {
  const std::string name = resolve_labeler_name(ctx.options);
  const labeler& engine = find_labeler(name);
  ctx.attribute("labeler", name);

  labeler_request request;
  request.gamma = ctx.options.gamma;
  request.alignment = ctx.options.alignment;
  request.time_limit_seconds = ctx.options.time_limit_seconds;
  request.oct_engine = ctx.options.oct_engine;
  request.max_rows = ctx.options.max_rows;
  request.max_columns = ctx.options.max_columns;
  request.reduce = ctx.options.oct_reduction;
  request.threads = ctx.options.parallel.threads;
  request.cache = ctx.cache;
  request.telemetry = ctx.telemetry;

  // Memoization: identical (graph, labeler, options) triples reuse the
  // stored labeling. Labelers are deterministic, so a hit is
  // observationally identical to a recompute — except the solver trace,
  // which a hit does not replay.
  std::optional<label_cache_key> key;
  if (ctx.cache != nullptr)
    key = make_label_cache_key(ctx.graph, name, engine.cache_salt(request));
  if (key) {
    if (std::optional<cached_labeling> hit = ctx.cache->find(*key)) {
      ctx.labels = std::move(hit->l);
      ctx.label_optimal = hit->optimal;
      ctx.label_gap = hit->relative_gap;
      ctx.label_cache_hit = true;
      ctx.attribute("cache", "hit");
    }
  }
  if (!ctx.label_cache_hit) {
    labeler_result r = engine.label(ctx.graph, request);
    ctx.labels = std::move(r.l);
    ctx.label_optimal = r.optimal;
    ctx.label_gap = r.relative_gap;
    ctx.stats.trace = std::move(r.trace);
    if (key) {
      cached_labeling entry;
      entry.l = ctx.labels;
      entry.optimal = ctx.label_optimal;
      entry.relative_gap = ctx.label_gap;
      entry.oct_size = r.oct_size;
      entry.promoted = r.promoted;
      ctx.cache->store(*key, std::move(entry));
      ctx.attribute("cache", "miss");
    }
  }
  ctx.stats.optimal = ctx.label_optimal;
  ctx.stats.relative_gap = ctx.label_gap;
  if (ctx.cache != nullptr) {
    const labeling_cache::counters c = ctx.cache->stats();
    ctx.stats.cache_hits = c.hits;
    ctx.stats.cache_misses = c.misses;
  }

  const labeling_stats ls = compute_stats(ctx.labels);
  ctx.stats.vh_count = ls.vh_count;
  ctx.metric("vh_count", ls.vh_count);
  ctx.metric("rows", ls.rows);
  ctx.metric("columns", ls.columns);
  ctx.metric("semiperimeter", ls.semiperimeter);
  ctx.metric("optimal", ctx.label_optimal ? 1.0 : 0.0);
  ctx.metric("relative_gap", ctx.label_gap);
}

void run_map(synthesis_context& ctx) {
  ctx.mapped.emplace(map_to_crossbar(ctx.graph, ctx.labels));
  const xbar::crossbar& design = ctx.mapped->design;
  // Dimension budgets are a contract for every labeler, not only the MIP
  // (which enforces them in-solver): an oversized mapped design must fail
  // loudly, naming the overflow dimension, never ship silently. Partitioned
  // flows suppress the guard — their fragments are packed to fit, and the
  // partition pass is the remedy the message recommends.
  if (!ctx.options.partition) {
    const auto overflow = [](const char* dimension, int needed, int budget,
                             const char* flag) {
      return std::string("infeasible: mapped design needs ") +
             std::to_string(needed) + " " + dimension + " but " + flag +
             " is " + std::to_string(budget) +
             "; enable partitioning (--partition) or raise the budget";
    };
    if (ctx.options.max_rows && design.rows() > *ctx.options.max_rows)
      throw infeasible_error(overflow("rows", design.rows(),
                                      *ctx.options.max_rows, "--max-rows"));
    if (ctx.options.max_columns &&
        design.columns() > *ctx.options.max_columns)
      throw infeasible_error(overflow("columns", design.columns(),
                                      *ctx.options.max_columns,
                                      "--max-cols"));
  }
  ctx.stats.rows = design.rows();
  ctx.stats.columns = design.columns();
  ctx.stats.semiperimeter = design.semiperimeter();
  ctx.stats.max_dimension = design.max_dimension();
  ctx.stats.area = design.area();
  ctx.stats.power_proxy = design.active_device_count();
  ctx.stats.delay_steps = design.delay_steps();
  ctx.metric("rows", design.rows());
  ctx.metric("columns", design.columns());
  ctx.metric("semiperimeter", design.semiperimeter());
  ctx.metric("max_dimension", design.max_dimension());
  ctx.metric("area", static_cast<double>(design.area()));
  ctx.metric("power_proxy", design.active_device_count());
  ctx.metric("delay_steps", design.delay_steps());
}

}  // namespace

pipeline& pipeline::add_pass(std::string name, pass_fn run) {
  check(!name.empty(), "pipeline: pass needs a name");
  check(run != nullptr, "pipeline: pass '" + name + "' has no body");
  passes_.push_back({std::move(name), std::move(run)});
  return *this;
}

std::vector<std::string> pipeline::pass_names() const {
  std::vector<std::string> names;
  names.reserve(passes_.size());
  for (const pass& p : passes_) names.push_back(p.name);
  return names;
}

void pipeline::run(synthesis_context& ctx) const {
  for (const pass& p : passes_) {
    telemetry_event event;
    event.stage = p.name;
    event.stamp();  // ts_us marks the pass *start* on the shared clock
    ctx.current_event = &event;
    stopwatch clock;
    try {
      const trace_span span(p.name, "pipeline");
      p.run(ctx);
    } catch (...) {
      ctx.current_event = nullptr;
      if (flight_recorder_enabled())
        flight_record("pipeline.error", p.name + " threw");
      throw;
    }
    event.seconds = clock.seconds();
    ctx.current_event = nullptr;
    ctx.stats.stage_seconds.push_back({p.name, event.seconds});
    if (flight_recorder_enabled())
      flight_record("pipeline.stage",
                    p.name + " done in " + std::to_string(event.seconds) + "s");
    // Stage boundaries sample the ambient resource watchdog. A hard breach
    // throws resource_limit_error out of the run; soft memory pressure
    // sheds load first by evicting the memoization caches (a pure
    // time/space trade: designs never depend on cache contents).
    const bool shed = resource_checkpoint("pipeline.stage_boundary") ==
                      resource_pressure::soft_memory;
    // Stage boundaries are the engine's collection points: between passes
    // the live set is exactly the synthesis roots, so everything else the
    // build left behind (intermediate ite results) can be swept. Designs
    // are bit-identical with or without the sweep — later passes only read
    // the roots' DAGs, which the sweep provably keeps.
    if (ctx.gc_manager != nullptr && ctx.roots != nullptr)
      ctx.gc_manager->collect_garbage(*ctx.roots);
    if (shed) {
      if (ctx.cache != nullptr) ctx.cache->clear();
      if (ctx.options.partition_memo != nullptr)
        ctx.options.partition_memo->clear();
    }
    // Stage boundaries are also where the BDD engine's internal counters
    // become externally visible (the manager itself is metrics-agnostic).
    if (metrics_enabled() && ctx.manager != nullptr)
      ctx.manager->publish_metrics();
    publish_memtrack_metrics();
    if (ctx.telemetry != nullptr) ctx.telemetry->emit(event);
  }
}

std::string resolve_labeler_name(const synthesis_options& options) {
  if (!options.labeler.empty()) return options.labeler;
  return options.method == labeling_method::minimal_semiperimeter ? "oct"
                                                                  : "mip";
}

pipeline make_label_map_pipeline() {
  // Per-fragment synthesis (core/partition): the fragment graph is already
  // installed in the context.
  pipeline p;
  p.add_pass("label", run_label);
  p.add_pass("map", run_map);
  return p;
}

pipeline make_synthesis_pipeline() {
  pipeline p;
  p.add_pass("build_graph", run_build_graph);
  p.add_pass("label", run_label);
  p.add_pass("map", run_map);
  return p;
}

void run_synthesis_pipeline(synthesis_context& ctx) {
  const stopwatch clock;
  const resource_limit_scope watchdog(
      {ctx.options.memory_limit_bytes, ctx.options.deadline_seconds});
  make_synthesis_pipeline().run(ctx);
  check(ctx.mapped.has_value(),
        "pipeline: run finished without a mapped design");
  ctx.stats.synthesis_seconds = clock.seconds();
}

}  // namespace compact::core
