#include "core/pipeline.hpp"

#include <algorithm>
#include <utility>

#include "core/compose.hpp"
#include "frontend/to_bdd.hpp"
#include "util/error.hpp"
#include "util/flight_recorder.hpp"
#include "util/memtrack.hpp"
#include "util/metrics.hpp"
#include "util/stopwatch.hpp"
#include "util/trace.hpp"
#include "util/watchdog.hpp"

namespace compact::core {
namespace {

/// Options for one of `parts` nested runs (outputs or fragments). The time
/// budget is split across them so the total stays comparable to a single
/// run's. The inner sites stay serial, so only the fan-out multiplies
/// threads and designs stay thread-count-invariant. Without a shared
/// labeling cache the parts share `local`, so duplicate subgraphs are
/// labeled once per run.
synthesis_options nested_options(const synthesis_options& options,
                                 std::size_t parts, labeling_cache& local) {
  synthesis_options nested = options;
  nested.time_limit_seconds = std::max(
      0.5, options.time_limit_seconds / static_cast<double>(parts));
  nested.parallel = {};
  if (nested.cache == nullptr) nested.cache = &local;
  return nested;
}

/// Fold one nested run's labeling outcome into the fan-out's stats: VH
/// counts add up, optimality needs every part, and the gap is the worst.
void merge_labeling(synthesis_stats& into, const synthesis_stats& part) {
  into.vh_count += part.vh_count;
  into.optimal = into.optimal && part.optimal;
  into.relative_gap = std::max(into.relative_gap, part.relative_gap);
}

void record_cache(synthesis_stats& stats, const labeling_cache* cache) {
  if (cache == nullptr) return;
  const labeling_cache::counters c = cache->stats();
  stats.cache_hits = c.hits;
  stats.cache_misses = c.misses;
}

void record_design(synthesis_stats& stats, const xbar::crossbar& design) {
  stats.rows = design.rows();
  stats.columns = design.columns();
  stats.semiperimeter = design.semiperimeter();
  stats.max_dimension = design.max_dimension();
  stats.area = design.area();
  stats.power_proxy = design.active_device_count();
  stats.delay_steps = design.delay_steps();
}

/// What a nested run (one output or one fragment) leaves behind; the rest
/// of its context dies with it.
struct nested_run {
  mapping_result mapped;
  synthesis_stats stats;
};

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
  const std::string& name = ctx.options.labeler;
  const labeler& engine = find_labeler(name);
  ctx.attribute("labeler", name);

  labeler_request request;
  request.gamma = ctx.options.gamma;
  request.alignment = ctx.options.alignment;
  request.time_limit_seconds = ctx.options.time_limit_seconds;
  // Under partition the budgets size the arrays, not the labeling: every
  // fragment is packed to fit any labeling, so fragment labelings share
  // cache entries with unbudgeted runs.
  if (!ctx.options.partition) {
    request.max_rows = ctx.options.max_rows;
    request.max_columns = ctx.options.max_columns;
  }
  request.reduce = ctx.options.oct_reduction;
  request.threads = ctx.options.parallel.threads;
  request.cache = ctx.options.cache;
  request.telemetry = ctx.options.telemetry;

  // Memoization: identical (graph, labeler, options) triples reuse the
  // stored labeling. Labelers are deterministic, so a hit is
  // observationally identical to a recompute — except the solver trace,
  // which a hit does not replay.
  labeling_cache* const cache = ctx.options.cache;
  std::optional<label_cache_key> key;
  if (cache != nullptr)
    key = make_label_cache_key(ctx.graph, name, engine.cache_salt(request));
  if (key) {
    if (std::optional<cached_labeling> hit = cache->find(*key)) {
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
      cache->store(*key, std::move(entry));
      ctx.attribute("cache", "miss");
    }
  }
  ctx.stats.optimal = ctx.label_optimal;
  ctx.stats.relative_gap = ctx.label_gap;
  record_cache(ctx.stats, cache);

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
  record_design(ctx.stats, design);
  ctx.metric("rows", design.rows());
  ctx.metric("columns", design.columns());
  ctx.metric("semiperimeter", design.semiperimeter());
  ctx.metric("max_dimension", design.max_dimension());
  ctx.metric("area", static_cast<double>(design.area()));
  ctx.metric("power_proxy", design.active_device_count());
  ctx.metric("delay_steps", design.delay_steps());
}

const pipeline& label_map_pipeline() {
  static const pipeline p =
      pipeline().add_pass("label", run_label).add_pass("map", run_map);
  return p;
}

void run_synthesize_outputs(synthesis_context& ctx) {
  const frontend::network& net = *ctx.network;
  const std::size_t output_count = net.outputs().size();
  check(output_count > 0, "synthesize: network has no outputs");
  labeling_cache local_cache;
  synthesis_options per_output =
      nested_options(ctx.options, output_count, local_cache);
  per_output.separate_robdds = false;

  // Each output builds its ROBDD in a private manager and runs the default
  // shape over it. The caches and the telemetry sink are the only shared
  // state; both are thread-safe.
  std::vector<nested_run> parts = parallel_map(
      ctx.options.parallel, output_count, [&](std::size_t o) {
        // One span per output: the fan-out shows up as parallel lanes in
        // the Chrome trace, keyed by the worker's tid.
        const trace_span span("output:" + net.outputs()[o].name, "synthesis");
        bdd::manager m(net.input_count());
        const std::vector<bdd::node_handle> roots{
            frontend::build_output(net, m, static_cast<int>(o))};
        const std::vector<std::string> names{net.outputs()[o].name};
        synthesis_context output;
        output.manager = &m;
        output.gc_manager = &m;
        output.roots = &roots;
        output.names = &names;
        output.options = per_output;
        synthesize(output);
        return nested_run{std::move(*output.mapped), std::move(output.stats)};
      });

  // Table III's "merged ROBDDs" column: per-output node counts add up.
  ctx.stats.optimal = true;
  ctx.blocks.reserve(parts.size());
  for (nested_run& part : parts) {
    ctx.stats.graph_nodes += part.stats.graph_nodes;
    ctx.stats.graph_edges += part.stats.graph_edges;
    merge_labeling(ctx.stats, part.stats);
    ctx.blocks.push_back(std::move(part.mapped.design));
  }
  record_cache(ctx.stats, per_output.cache);
  ctx.metric("outputs", static_cast<double>(output_count));
  ctx.metric("graph_nodes", static_cast<double>(ctx.stats.graph_nodes));
  ctx.metric("vh_count", ctx.stats.vh_count);
}

void run_compose(synthesis_context& ctx) {
  // Diagonal composition (Figure 8a): blocks stacked corner to corner, all
  // sharing one bottom input wordline (the merged '1' terminals).
  std::vector<const xbar::crossbar*> blocks;
  blocks.reserve(ctx.blocks.size());
  for (const xbar::crossbar& block : ctx.blocks) blocks.push_back(&block);
  const xbar::crossbar& design = ctx.composed.emplace(compose_diagonal(blocks));
  record_design(ctx.stats, design);
  ctx.metric("blocks", static_cast<double>(blocks.size()));
  ctx.metric("rows", design.rows());
  ctx.metric("columns", design.columns());
  ctx.metric("semiperimeter", design.semiperimeter());
  ctx.metric("cache_hits", static_cast<double>(ctx.stats.cache_hits));
  ctx.metric("cache_misses", static_cast<double>(ctx.stats.cache_misses));
}

void run_partition(synthesis_context& ctx) {
  partition_options plan_options;
  plan_options.max_rows = ctx.options.max_rows;
  plan_options.max_columns = ctx.options.max_columns;
  ctx.plan =
      plan_partition(ctx.graph, plan_options, ctx.options.partition_memo);
  ctx.stats.arrays = ctx.plan.fragment_count;
  ctx.stats.cut_edges = static_cast<int>(ctx.plan.cut_edges.size());
  ctx.metric("arrays", static_cast<double>(ctx.plan.fragment_count));
  ctx.metric("cut_edges", static_cast<double>(ctx.plan.cut_edges.size()));
  ctx.metric("capacity", static_cast<double>(ctx.plan.capacity));
}

void run_fragments(synthesis_context& ctx) {
  const int k = ctx.plan.fragment_count;
  if (k == 1) {
    // One fragment: label and map the graph already built, so the design
    // is byte-identical to an unpartitioned run's.
    label_map_pipeline().run(ctx);
    return;
  }
  const std::vector<fragment_graph> fragments =
      build_fragment_graphs(ctx.graph, ctx.plan);
  labeling_cache local_cache;
  const synthesis_options per_fragment = nested_options(
      ctx.options, static_cast<std::size_t>(k), local_cache);
  std::vector<nested_run> runs = parallel_map(
      ctx.options.parallel, fragments.size(), [&](std::size_t i) {
        const trace_span span("fragment:" + std::to_string(i), "partition");
        synthesis_context fragment;
        fragment.options = per_fragment;
        fragment.graph = fragments[i].graph;
        label_map_pipeline().run(fragment);
        return nested_run{std::move(*fragment.mapped),
                          std::move(fragment.stats)};
      });

  ctx.stats.optimal = true;
  std::vector<mapping_result> mapped;
  mapped.reserve(runs.size());
  for (nested_run& run : runs) {
    merge_labeling(ctx.stats, run.stats);
    mapped.push_back(std::move(run.mapped));
  }
  const xbar::partitioned_design& design = ctx.partitioned.emplace(
      stitch_fragments(ctx.graph, fragments, std::move(mapped)));
  synthesis_stats& stats = ctx.stats;
  stats.bridges = static_cast<int>(design.connections().size());
  stats.rows = design.max_fragment_rows();
  stats.columns = design.max_fragment_columns();
  stats.max_dimension = std::max(stats.rows, stats.columns);
  stats.semiperimeter = design.total_semiperimeter();
  stats.area = design.total_area();
  stats.power_proxy = design.active_device_count();
  stats.delay_steps = design.delay_steps();
  record_cache(stats, per_fragment.cache);
  ctx.metric("bridges", stats.bridges);
  ctx.metric("semiperimeter", stats.semiperimeter);
}

/// The pipeline shape `options` selects (core/compact).
const pipeline& shape_of(const synthesis_options& options) {
  static const pipeline sbdd = pipeline()
                                   .add_pass("build_graph", run_build_graph)
                                   .add_pass("label", run_label)
                                   .add_pass("map", run_map);
  static const pipeline separate =
      pipeline()
          .add_pass("synthesize_outputs", run_synthesize_outputs)
          .add_pass("compose", run_compose);
  static const pipeline partitioned =
      pipeline()
          .add_pass("build_graph", run_build_graph)
          .add_pass("partition", run_partition)
          .add_pass("fragments", run_fragments);
  if (options.separate_robdds) return separate;
  return options.partition ? partitioned : sbdd;
}

}  // namespace

pipeline& pipeline::add_pass(std::string name, pass_fn run) {
  check(!name.empty(), "pipeline: pass needs a name");
  check(run != nullptr, "pipeline: pass '" + name + "' has no body");
  passes_.push_back({std::move(name), std::move(run)});
  return *this;
}

void pipeline::run(synthesis_context& ctx) const {
  // A pipeline run inside a pass hands the pass its event back afterwards.
  telemetry_event* const enclosing = ctx.current_event;
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
      ctx.current_event = enclosing;
      if (flight_recorder_enabled())
        flight_record("pipeline.error", p.name + " threw");
      throw;
    }
    event.seconds = clock.seconds();
    ctx.current_event = enclosing;
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
      if (ctx.options.cache != nullptr) ctx.options.cache->clear();
      if (ctx.options.partition_memo != nullptr)
        ctx.options.partition_memo->clear();
    }
    // Stage boundaries are also where the BDD engine's internal counters
    // become externally visible (the manager itself is metrics-agnostic).
    if (metrics_enabled() && ctx.manager != nullptr)
      ctx.manager->publish_metrics();
    publish_memtrack_metrics();
    if (ctx.options.telemetry != nullptr) ctx.options.telemetry->emit(event);
  }
}

void synthesize(synthesis_context& ctx) {
  const synthesis_options& options = ctx.options;
  if (options.partition && options.separate_robdds)
    throw error(
        "partition and separate_robdds are mutually exclusive (the "
        "separate-ROBDD flow already composes one block per output)");
  check(!options.separate_robdds || ctx.network != nullptr,
        "synthesize: separate_robdds needs the network");
  const stopwatch clock;
  const resource_limit_scope watchdog(
      {options.memory_limit_bytes, options.deadline_seconds});
  shape_of(options).run(ctx);
  ctx.stats.synthesis_seconds = clock.seconds();
}

}  // namespace compact::core
