// Microbenchmarks (google-benchmark): throughput of the individual engines
// the COMPACT flow is built from. Not a paper artifact — these guard against
// performance regressions in the substrates.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "analog/mna.hpp"
#include "api/compact_api.hpp"
#include "bdd/stats.hpp"
#include "core/compact.hpp"
#include "core/labelers.hpp"
#include "core/partition.hpp"
#include "frontend/benchgen.hpp"
#include "frontend/blif.hpp"
#include "frontend/to_bdd.hpp"
#include "graph/oct.hpp"
#include "graph/product.hpp"
#include "milp/branch_and_bound.hpp"
#include "util/memtrack.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "verify/electrical.hpp"
#include "xbar/evaluate.hpp"
#include "xbar/faults.hpp"
#include "xbar/serialize.hpp"

namespace {

using namespace compact;

/// Worker threads for the solver benchmark, set by `--threads N`. A flag
/// rather than ->Arg so the benchmark NAME is identical across runs and
/// bench_compare can diff a --threads 1 run against a --threads 2 run.
int g_solver_threads = 1;

void BM_BddBuildAdder(benchmark::State& state) {
  const frontend::network net =
      frontend::make_ripple_adder(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    bdd::manager m(net.input_count());
    const frontend::sbdd built = frontend::build_sbdd(net, m);
    benchmark::DoNotOptimize(built.roots.data());
  }
}
BENCHMARK(BM_BddBuildAdder)->Arg(8)->Arg(16)->Arg(32);

void BM_BddIteThroughput(benchmark::State& state) {
  rng random(5);
  for (auto _ : state) {
    bdd::manager m(16);
    bdd::node_handle f = m.constant(false);
    for (int i = 0; i < 200; ++i) {
      const int v = static_cast<int>(random.next_below(16));
      f = random.next_bool() ? m.apply_or(f, m.var(v))
                             : m.apply_xor(f, m.var(v));
    }
    benchmark::DoNotOptimize(f);
  }
}
BENCHMARK(BM_BddIteThroughput);

/// Memoized Shannon cofactor on a maximally shared DAG (parity): every
/// internal node has two parents, so an unmemoized traversal is 2^n.
void BM_BddRestrictParity(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  bdd::manager m(n);
  bdd::node_handle f = m.var(0);
  for (int v = 1; v < n; ++v) f = m.apply_xor(f, m.var(v));
  for (auto _ : state) {
    bdd::node_handle g = f;
    for (int v = n - 1; v >= 0; v -= 2) g = m.restrict_var(g, v, false);
    benchmark::DoNotOptimize(g);
  }
}
BENCHMARK(BM_BddRestrictParity)->Arg(16)->Arg(32);

/// Mark-and-sweep cost on a freshly built SBDD: build leaves the adder's
/// intermediate ite results garbage; the sweep keeps only the sum roots.
void BM_BddGcMarkSweep(benchmark::State& state) {
  const frontend::network net = frontend::make_ripple_adder(16);
  for (auto _ : state) {
    bdd::manager m(net.input_count());
    const frontend::sbdd built = frontend::build_sbdd(net, m);
    const bdd::manager::gc_result r = m.collect_garbage(built.roots);
    benchmark::DoNotOptimize(r.reclaimed);
  }
}
BENCHMARK(BM_BddGcMarkSweep);

void BM_OctOnParityGraph(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  bdd::manager m(n);
  bdd::node_handle f = m.var(0);
  for (int v = 1; v < n; ++v) f = m.apply_xor(f, m.var(v));
  const core::bdd_graph g = core::build_bdd_graph(m, {f}, {"f"});
  for (auto _ : state) {
    const graph::oct_result r = graph::odd_cycle_transversal(g.g);
    benchmark::DoNotOptimize(r.size);
  }
}
BENCHMARK(BM_OctOnParityGraph)->Arg(6)->Arg(10)->Arg(14);

void BM_SimplexVertexCoverRelaxation(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  milp::model m;
  for (int i = 0; i < n; ++i) m.add_variable(0.0, 1.0, 1.0, false, "");
  for (int i = 0; i < n; ++i)
    m.add_constraint({{i, 1.0}, {(i + 1) % n, 1.0}},
                     milp::relation::greater_equal, 1.0);
  for (auto _ : state) {
    const milp::lp_result r = milp::solve_lp(m);
    benchmark::DoNotOptimize(r.objective);
  }
}
BENCHMARK(BM_SimplexVertexCoverRelaxation)->Arg(16)->Arg(64)->Arg(128);

/// The unit of work behind every branch-and-bound child, probe and dive
/// step: one bound change and a dual re-solve from an optimal basis. The LP
/// has the shape of Eq. 4: two boxed label columns and a covering row per
/// node, one selector per edge and two three-nonzero rows per edge (a ring
/// plus random chords). Each iteration restores the solved engine, fixes
/// the first label the root LP sets to 1 down to 0 and re-solves.
void BM_SimplexWarmResolve(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  milp::model m;
  for (int i = 0; i < n; ++i) {
    const int h = m.add_variable(0.0, 1.0, 0.5, false, "");
    const int v = m.add_variable(0.0, 1.0, 0.5, false, "");
    m.add_constraint({{h, 1.0}, {v, 1.0}}, milp::relation::greater_equal, 1.0);
  }
  rng random(11);
  for (int e = 0; e < 2 * n; ++e) {
    const int u = e % n;
    const int w = e < n ? (u + 1) % n
                        : static_cast<int>(random.next_below(
                              static_cast<std::uint64_t>(n)));
    if (u == w) continue;
    const int sel = m.add_variable(0.0, 1.0, 0.0, false, "");
    m.add_constraint({{2 * u + 1, 1.0}, {2 * w, 1.0}, {sel, 2.0}},
                     milp::relation::greater_equal, 2.0);
    m.add_constraint({{2 * u, 1.0}, {2 * w + 1, 1.0}, {sel, -2.0}},
                     milp::relation::greater_equal, 0.0);
  }
  milp::lp_engine solved(milp::make_lp_matrix(m));
  const milp::lp_result root = solved.solve({});
  int var = 0;
  while (var + 1 < 2 * n && root.x[static_cast<std::size_t>(var)] < 0.5) ++var;
  milp::lp_engine engine = solved;
  long iterations = 0;
  for (auto _ : state) {
    engine = solved;
    engine.set_bounds(var, 0.0, 0.0);
    const milp::lp_result r = engine.solve({});
    iterations = r.iterations;
    benchmark::DoNotOptimize(r.objective);
  }
  state.counters["lp_iterations"] = static_cast<double>(iterations);
}
BENCHMARK(BM_SimplexWarmResolve)->Arg(64)->Arg(256);

void BM_CrossbarEvaluate(benchmark::State& state) {
  const frontend::network net = frontend::make_comparator(8);
  bdd::manager m(net.input_count());
  const frontend::sbdd built = frontend::build_sbdd(net, m);
  core::synthesis_options options;
  options.method = core::labeling_method::minimal_semiperimeter;
  const core::synthesis_result r =
      core::synthesize(m, built.roots, built.names, options);
  rng random(7);
  std::vector<bool> a(static_cast<std::size_t>(net.input_count()));
  for (auto _ : state) {
    for (std::size_t i = 0; i < a.size(); ++i) a[i] = random.next_bool();
    benchmark::DoNotOptimize(xbar::evaluate(r.design, a));
  }
}
BENCHMARK(BM_CrossbarEvaluate);

void BM_AnalogSolve(benchmark::State& state) {
  const frontend::network net = frontend::make_comparator(4);
  bdd::manager m(net.input_count());
  const frontend::sbdd built = frontend::build_sbdd(net, m);
  core::synthesis_options options;
  options.method = core::labeling_method::minimal_semiperimeter;
  const core::synthesis_result r =
      core::synthesize(m, built.roots, built.names, options);
  rng random(7);
  std::vector<bool> a(static_cast<std::size_t>(net.input_count()));
  for (auto _ : state) {
    for (std::size_t i = 0; i < a.size(); ++i) a[i] = random.next_bool();
    benchmark::DoNotOptimize(analog::simulate(r.design, a));
  }
}
BENCHMARK(BM_AnalogSolve);

void BM_EndToEndOctSynthesis(benchmark::State& state) {
  const frontend::network net = frontend::make_priority_encoder(16);
  core::synthesis_options options;
  options.method = core::labeling_method::minimal_semiperimeter;
  for (auto _ : state) {
    const core::synthesis_result r = core::synthesize_network(net, options);
    benchmark::DoNotOptimize(r.stats.semiperimeter);
  }
}
BENCHMARK(BM_EndToEndOctSynthesis);

/// The ELC family's engine on a many-output design: ctrl7x26 (26 sensed
/// outputs, 20 of them entered by two edges), synthesized once. Every
/// iteration rebuilds the wire graph and bounds each output's parallel
/// leakage paths exactly.
void BM_AnalyzeElectrical(benchmark::State& state) {
  core::synthesis_options options;
  options.method = core::labeling_method::minimal_semiperimeter;
  const core::synthesis_result r =
      core::synthesize_network(frontend::make_ctrl(7, 26), options);
  for (auto _ : state) {
    const verify::electrical_report report =
        verify::analyze_electrical(r.design);
    benchmark::DoNotOptimize(report.min_margin_ratio);
  }
}
BENCHMARK(BM_AnalyzeElectrical);

/// Synthesize `net` through the facade, as a served request would.
api::request_v1 netlist_request(const frontend::network& net, const char* op) {
  std::ostringstream blif;
  frontend::write_blif(net, blif);
  api::request_v1 request;
  request.id = "flow-1";
  request.op = op;
  request.source.text = blif.str();
  request.synthesis.labeler = "oct";
  request.lint.labeler = "oct";
  request.lint.electrical = true;
  return request;
}

/// The wire codec's hottest read: an evaluate request carrying a served
/// design (arbiter(4), about 1.4 KB of JSON), as flow-serve sends it.
void BM_RequestFromJson(benchmark::State& state) {
  const frontend::network net = frontend::make_arbiter(4);
  api::request_v1 evaluate;
  evaluate.id = "flow-1";
  evaluate.op = "evaluate";
  evaluate.design_text =
      api::handle(netlist_request(net, "synthesize")).design_text;
  evaluate.assignment = std::string(net.input_count(), '1');
  const std::string line = api::to_json(evaluate);
  for (auto _ : state) {
    const api::request_v1 request = api::request_from_json(line);
    benchmark::DoNotOptimize(request.design_text.data());
  }
  state.counters["line_bytes"] = static_cast<double>(line.size());
}
BENCHMARK(BM_RequestFromJson);

/// The wire codec's write of a lint response with diagnostics (ctrl(4, 8)
/// with the electrical checks: nine findings, about 4 KB of JSON).
void BM_ResponseToJson(benchmark::State& state) {
  const api::response_v1 response =
      api::handle(netlist_request(frontend::make_ctrl(4, 8), "lint"));
  for (auto _ : state) {
    const std::string line = api::to_json(response);
    benchmark::DoNotOptimize(line.data());
    benchmark::ClobberMemory();
  }
  state.counters["diagnostics"] =
      static_cast<double>(response.diagnostics.size());
}
BENCHMARK(BM_ResponseToJson);

/// The BLIF reader on a netlist as a served synthesize or lint carries it:
/// router(4) as write_blif prints it, about 1.9 KB.
void BM_ParseBlif(benchmark::State& state) {
  const std::string text =
      netlist_request(frontend::make_router(4), "synthesize").source.text;
  for (auto _ : state) {
    const frontend::network net = frontend::parse_blif(text);
    benchmark::DoNotOptimize(net.node_count());
  }
  state.counters["netlist_bytes"] = static_cast<double>(text.size());
}
BENCHMARK(BM_ParseBlif);

/// The .xbar reader on that circuit's synthesized design, as a served lint
/// or evaluate reads it.
void BM_ReadDesign(benchmark::State& state) {
  const std::string text =
      api::handle(netlist_request(frontend::make_router(4), "synthesize"))
          .design_text;
  for (auto _ : state) {
    const xbar::loaded_partitioned_design loaded =
        xbar::read_partitioned_design(text);
    benchmark::DoNotOptimize(loaded.design.array_count());
  }
  state.counters["design_bytes"] = static_cast<double>(text.size());
}
BENCHMARK(BM_ReadDesign);

/// One flow-serve session on a flow-serve-sized circuit (parity(12, 2),
/// Method 2 at gamma 0.5, about 40 SBDD nodes): one service handles a
/// synthesize, a lint of the returned design with the electrical checks,
/// and four evaluates of it, with metrics and byte accounting on as in
/// compact-serve. The label cache is warm after the first iteration, so
/// what is timed is each request's fixed cost: its BDD managers (the spec,
/// and the lint's extraction), the metrics it publishes, parse and serde.
void BM_ServeSmallSession(benchmark::State& state) {
  set_metrics_enabled(true);
  set_memtrack_enabled(true);
  const frontend::network net = frontend::make_parity(12, 2);
  api::service service;
  api::request_v1 synthesize = netlist_request(net, "synthesize");
  synthesize.synthesis.labeler = "mip";
  synthesize.synthesis.gamma = 0.5;
  api::request_v1 lint = synthesize;
  lint.op = "lint";
  lint.lint.labeler = "mip";
  lint.lint.gamma = 0.5;
  lint.design_text = service.handle(synthesize).design_text;
  std::vector<api::request_v1> session{synthesize, lint};
  for (int i = 0; i < 4; ++i) {
    api::request_v1 evaluate;
    evaluate.id = "flow-1";
    evaluate.op = "evaluate";
    evaluate.design_text = lint.design_text;
    for (int bit = 0; bit < net.input_count(); ++bit)
      evaluate.assignment += (bit * 7 + i) % 3 == 0 ? '1' : '0';
    session.push_back(std::move(evaluate));
  }
  for (const api::request_v1& request : session)
    if (const api::response_v1 r = service.handle(request); !r.ok) {
      set_metrics_enabled(false);
      set_memtrack_enabled(false);
      state.SkipWithError((request.op + ": " + r.error_message).c_str());
      return;
    }
  for (auto _ : state)
    for (const api::request_v1& request : session) {
      const api::response_v1 response = service.handle(request);
      benchmark::DoNotOptimize(response.ok);
    }
  set_metrics_enabled(false);
  set_memtrack_enabled(false);
}
BENCHMARK(BM_ServeSmallSession);

/// Shared design for the parallel-stage benchmarks below.
const core::synthesis_result& comparator_design() {
  static const core::synthesis_result r = [] {
    core::synthesis_options options;
    options.method = core::labeling_method::minimal_semiperimeter;
    return core::synthesize_network(frontend::make_comparator(8), options);
  }();
  return r;
}

/// Arg = worker threads. The report is bit-identical across thread counts
/// (substream-per-trial); only the wall clock should move.
void BM_ParallelYield(benchmark::State& state) {
  const core::synthesis_result& r = comparator_design();
  xbar::yield_options options;
  options.trials = 200;
  options.fault_rate = 0.01;
  options.parallel.threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const xbar::yield_report report = xbar::estimate_yield(r.design, 16, options);
    benchmark::DoNotOptimize(report.functional);
  }
}
BENCHMARK(BM_ParallelYield)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

/// The labeling hot path end to end: weighted-MIP synthesis (kernelized OCT
/// warm start + presolve + round-based parallel branch-and-bound) under
/// `--threads`. The design is bit-identical for any thread count; only the
/// wall clock may move. At gamma 0.3 mux_tree(3)'s Method 1 labeling is
/// not optimal, so the optimality certificate cannot close it and
/// branch-and-bound runs.
void BM_MipLabelingSolver(benchmark::State& state) {
  const frontend::network net = frontend::make_mux_tree(3);
  bdd::manager m(net.input_count());
  const frontend::sbdd built = frontend::build_sbdd(net, m);
  core::synthesis_options options;
  options.method = core::labeling_method::weighted_mip;
  options.gamma = 0.3;
  options.time_limit_seconds = 30.0;
  options.parallel.threads = g_solver_threads;
  for (auto _ : state) {
    const core::synthesis_result r =
        core::synthesize(m, built.roots, built.names, options);
    benchmark::DoNotOptimize(r.stats.semiperimeter);
  }
  state.counters["threads"] = static_cast<double>(g_solver_threads);
}
BENCHMARK(BM_MipLabelingSolver)->UseRealTime();

/// Plan computation alone (greedy interval packing + boundary refinement),
/// cache disabled so every iteration does the full work. Arg = per-array
/// capacity; smaller capacities mean more fragments and more refinement
/// boundaries.
void BM_PartitionPlan(benchmark::State& state) {
  const frontend::network net = frontend::make_priority_encoder(64);
  bdd::manager m(net.input_count());
  const frontend::sbdd built = frontend::build_sbdd(net, m);
  const core::bdd_graph g = core::build_bdd_graph(m, built.roots, built.names);
  core::partition_options options;
  options.max_rows = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const core::partition_plan plan =
        core::plan_partition(g, options, /*cache=*/nullptr);
    benchmark::DoNotOptimize(plan.fragment_count);
  }
}
BENCHMARK(BM_PartitionPlan)->Arg(16)->Arg(32)->Arg(64);

/// Partitioned synthesis end to end: plan + per-fragment label/map + stitch
/// on a circuit small enough for the exact OCT labeler, split across ~6
/// arrays. The labeling cache makes iterations after the first measure the
/// partition/stitch overhead on top of cache hits — exactly the steady-state
/// cost an embedding sweep pays.
void BM_PartitionSynthesis(benchmark::State& state) {
  const frontend::network net = frontend::make_parity(16, 2);
  core::synthesis_options options;
  options.method = core::labeling_method::minimal_semiperimeter;
  options.max_rows = 12;
  options.max_columns = 12;
  options.partition = true;
  for (auto _ : state) {
    const core::partitioned_synthesis_result r =
        core::synthesize_partitioned_network(net, options);
    benchmark::DoNotOptimize(r.stats.arrays);
  }
}
BENCHMARK(BM_PartitionSynthesis);

}  // namespace

// Custom main instead of benchmark_main: `--json FILE` is shorthand for
// google-benchmark's `--benchmark_out=FILE --benchmark_out_format=json`,
// and `--threads N` sets the solver benchmark's worker count — both match
// the table/figure harnesses' flags.
int main(int argc, char** argv) {
  std::vector<std::string> storage;
  storage.reserve(static_cast<std::size_t>(argc) + 1);
  storage.emplace_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--json" && i + 1 < argc) {
      storage.emplace_back(std::string("--benchmark_out=") + argv[++i]);
      storage.emplace_back("--benchmark_out_format=json");
    } else if (a == "--threads" && i + 1 < argc) {
      g_solver_threads = std::max(1, std::atoi(argv[++i]));
    } else {
      storage.push_back(a);
    }
  }
  std::vector<char*> args;
  args.reserve(storage.size());
  for (std::string& s : storage) args.push_back(s.data());
  int translated_argc = static_cast<int>(args.size());
  benchmark::Initialize(&translated_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(translated_argc, args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
