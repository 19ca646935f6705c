// Static electrical-integrity engine (verify/electrical, the ELCxxx
// family): hand-built designs pin the resistive bounds, and the agreement
// suite pins the conservative direction against analog/mna on every small
// committed benchmark — a statically "safe" verdict must imply the nodal
// simulation also separates logic levels at the same corner. The engine
// only observes, so designs are byte-identical with the ELC pass on or
// off at any thread count. A brute-force oracle pins the parallel-path
// count on random single-array and bridged two-array crossbars.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <utility>

#include "analog/margins.hpp"
#include "api/compact_api.hpp"
#include "core/partition.hpp"
#include "core/pipeline.hpp"
#include "frontend/benchgen.hpp"
#include "frontend/blif.hpp"
#include "frontend/to_bdd.hpp"
#include "util/rng.hpp"
#include "verify/analyzer.hpp"
#include "verify/electrical.hpp"
#include "xbar/serialize.hpp"

namespace compact::verify {
namespace {

std::string to_blif(const frontend::network& net) {
  std::ostringstream os;
  frontend::write_blif(net, os);
  return os.str();
}

struct synthesized {
  frontend::network net;
  bdd::manager m;
  frontend::sbdd built;
  core::synthesis_context ctx;

  explicit synthesized(frontend::network n)
      : net(std::move(n)), m(net.input_count()) {
    built = frontend::build_sbdd(net, m);
    ctx.manager = &m;
    ctx.roots = &built.roots;
    ctx.names = &built.names;
    ctx.options.time_limit_seconds = 5.0;
    core::make_synthesis_pipeline().run(ctx);
  }
};

TEST(ElectricalTest, SingleDevicePathBounds) {
  // Input row 0, output row 1, joined through column 0 by two devices:
  // the only conduction path carries exactly two junctions.
  xbar::crossbar design(2, 1);
  design.set_input_row(0);
  design.set_literal(0, 0, 0, true);
  design.set_on(1, 0);
  design.add_output(1, "f");

  const electrical_options options;
  const electrical_report report = analyze_electrical(design, options);
  ASSERT_EQ(report.outputs.size(), 1u);
  const output_margin& m = report.outputs[0];
  EXPECT_EQ(m.name, "f");
  EXPECT_EQ(m.min_on_devices, 2);
  EXPECT_EQ(m.worst_on_devices, 2);
  EXPECT_EQ(m.bridge_crossings, 0);
  EXPECT_DOUBLE_EQ(m.worst_on_resistance, 2.0 * options.model.r_on);
  EXPECT_GE(m.best_off_resistance, options.model.r_off);
  EXPECT_GE(m.margin_ratio, options.margin_threshold);
  EXPECT_TRUE(m.safe);
  EXPECT_TRUE(report.safe);
}

TEST(ElectricalTest, UnreachableOutputIsNotAMarginFailure) {
  // A dead output (no conduction path at all) belongs to the structural
  // and equivalence families; the electrical verdict must not pile on.
  xbar::crossbar design(2, 1);
  design.set_input_row(0);
  design.add_output(1, "dead");

  const electrical_report report = analyze_electrical(design, {});
  ASSERT_EQ(report.outputs.size(), 1u);
  EXPECT_EQ(report.outputs[0].min_on_devices, -1);
  EXPECT_TRUE(report.outputs[0].safe);
  EXPECT_TRUE(report.safe);
}

TEST(ElectricalTest, CollapsedDeviceCornerIsNeverSafe) {
  xbar::crossbar design(2, 1);
  design.set_input_row(0);
  design.set_literal(0, 0, 0, true);
  design.set_on(1, 0);
  design.add_output(1, "f");

  electrical_options options;
  options.model.r_on = options.model.r_off;  // ON paths == leakage
  const electrical_report report = analyze_electrical(design, options);
  ASSERT_EQ(report.outputs.size(), 1u);
  EXPECT_FALSE(report.outputs[0].safe);
  EXPECT_LT(report.outputs[0].margin_ratio, 1.0);
  EXPECT_FALSE(report.safe);
}

TEST(ElectricalTest, PartitionedDesignCountsBridgeCrossings) {
  const frontend::network net = frontend::make_parity(16, 2);
  bdd::manager m(net.input_count());
  const frontend::sbdd built = frontend::build_sbdd(net, m);
  core::synthesis_options options;
  options.time_limit_seconds = 5.0;
  options.max_rows = 12;
  options.max_columns = 12;
  options.partition = true;
  const core::partitioned_synthesis_result result =
      core::synthesize_partitioned(m, built.roots, built.names, options);
  ASSERT_GT(result.design.array_count(), 1);

  const electrical_report report =
      analyze_electrical(result.design, electrical_options{});
  ASSERT_FALSE(report.outputs.empty());
  bool crosses = false;
  for (const output_margin& o : report.outputs)
    if (o.bridge_crossings > 0) crosses = true;
  EXPECT_TRUE(crosses) << "a multi-array design must route some output "
                          "through at least one bridge";
}

// --- parallel leakage paths against a brute-force oracle -------------------

/// The design's wire graph built independently of the engine: every wire of
/// every fragment is a node (rows, then columns, fragment by fragment), and
/// every programmed junction and every bridge is one edge.
struct oracle_graph {
  std::vector<std::vector<int>> adjacent;  // one entry per incident edge
  int input = -1;
  std::vector<int> output_wires;  // in the engine's report order
};

oracle_graph oracle_of(const xbar::partitioned_design& design) {
  oracle_graph g;
  std::vector<int> base;
  int wires = 0;
  for (const xbar::crossbar& f : design.fragments()) {
    base.push_back(wires);
    wires += f.rows() + f.columns();
  }
  g.adjacent.resize(static_cast<std::size_t>(wires));
  const auto join = [&](int a, int b) {
    g.adjacent[static_cast<std::size_t>(a)].push_back(b);
    g.adjacent[static_cast<std::size_t>(b)].push_back(a);
  };
  for (int a = 0; a < design.array_count(); ++a) {
    const xbar::crossbar& f = design.fragment(a);
    const int rows = base[static_cast<std::size_t>(a)];
    for (int r = 0; r < f.rows(); ++r)
      for (int c = 0; c < f.columns(); ++c)
        if (f.at(r, c).kind != xbar::literal_kind::off)
          join(rows + r, rows + f.rows() + c);
    if (f.input_row() >= 0) g.input = rows + f.input_row();
    for (const xbar::output_port& port : f.outputs())
      g.output_wires.push_back(rows + port.row);
  }
  for (const xbar::bridge& b : design.connections()) {
    const auto wire = [&](const xbar::wire_ref& w) {
      const int rows = base[static_cast<std::size_t>(w.array)];
      return w.kind == xbar::wire_kind::row
                 ? rows + w.index
                 : rows + design.fragment(w.array).rows() + w.index;
    };
    join(wire(b.a), wire(b.b));
  }
  return g;
}

/// Every simple path from `wire` to `target` (distinct edge sequences),
/// without any budget: the graphs here are small.
long long count_all_paths(const oracle_graph& g, int wire, int target,
                          std::vector<bool>& on_path) {
  if (wire == target) return 1;
  on_path[static_cast<std::size_t>(wire)] = true;
  long long paths = 0;
  for (const int next : g.adjacent[static_cast<std::size_t>(wire)])
    if (!on_path[static_cast<std::size_t>(next)])
      paths += count_all_paths(g, next, target, on_path);
  on_path[static_cast<std::size_t>(wire)] = false;
  return paths;
}

xbar::crossbar random_array(rng& random, int rows, int columns,
                            double density) {
  xbar::crossbar x(rows, columns);
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < columns; ++c) {
      if (random.next_double() >= density) continue;
      if (random.next_bool())
        x.set_on(r, c);
      else
        x.set_literal(r, c, static_cast<int>(random.next_below(3)),
                      random.next_bool());
    }
  return x;
}

void add_random_outputs(rng& random, xbar::crossbar& x,
                        const std::string& tag) {
  const int count = 1 + static_cast<int>(random.next_below(3));
  for (int i = 0; i < count; ++i)
    x.add_output(static_cast<int>(random.next_below(
                     static_cast<std::uint64_t>(x.rows()))),
                 tag + std::to_string(i));
}

/// Checks every sensed output of `design` against the oracle; returns how
/// many had fewer simple paths than entry edges (the count mattered).
int expect_oracle_paths(const xbar::partitioned_design& design,
                        const electrical_report& report) {
  const oracle_graph g = oracle_of(design);
  EXPECT_EQ(report.outputs.size(), g.output_wires.size());
  int path_limited = 0;
  for (std::size_t i = 0;
       i < std::min(report.outputs.size(), g.output_wires.size()); ++i) {
    const output_margin& m = report.outputs[i];
    const int wire = g.output_wires[i];
    std::vector<bool> on_path(g.adjacent.size(), false);
    const long long paths =
        g.input < 0 ? 0 : count_all_paths(g, g.input, wire, on_path);
    EXPECT_EQ(m.min_on_devices >= 0, paths > 0) << m.name;
    if (paths == 0) continue;
    const auto entry_degree = static_cast<long long>(
        g.adjacent[static_cast<std::size_t>(wire)].size());
    const long long expected =
        wire == g.input ? 1 : std::max(1LL, std::min(entry_degree, paths));
    EXPECT_EQ(m.parallel_paths, expected)
        << m.name << ": " << paths << " simple paths, entry degree "
        << entry_degree;
    if (wire != g.input && paths < entry_degree) ++path_limited;
  }
  return path_limited;
}

TEST(ElectricalTest, ParallelPathsMatchBruteForceOnRandomArrays) {
  rng random(18);
  int path_limited = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const int rows = 2 + static_cast<int>(random.next_below(4));
    const int columns = 1 + static_cast<int>(random.next_below(5));
    xbar::crossbar x =
        random_array(random, rows, columns, 0.25 + 0.1 * (trial % 4));
    x.set_input_row(static_cast<int>(
        random.next_below(static_cast<std::uint64_t>(rows))));
    add_random_outputs(random, x, "f");
    const electrical_report report = analyze_electrical(x, {});
    path_limited += expect_oracle_paths(xbar::wrap_single(x), report);
  }
  EXPECT_GT(path_limited, 0) << "no output had fewer paths than entries";
}

TEST(ElectricalTest, ParallelPathsMatchBruteForceAcrossBridges) {
  rng random(81);
  int path_limited = 0;
  for (int trial = 0; trial < 400; ++trial) {
    xbar::partitioned_design design;
    for (int a = 0; a < 2; ++a) {
      const int rows = 2 + static_cast<int>(random.next_below(3));
      const int columns = 1 + static_cast<int>(random.next_below(4));
      xbar::crossbar x = random_array(random, rows, columns, 0.35);
      if (a == 0)
        x.set_input_row(static_cast<int>(
            random.next_below(static_cast<std::uint64_t>(rows))));
      add_random_outputs(
          random, x, std::string("a").append(std::to_string(a)).append("_"));
      design.add_fragment(std::move(x));
    }
    const int bridges = 1 + static_cast<int>(random.next_below(3));
    for (int b = 0; b < bridges; ++b) {
      xbar::wire_ref ends[2];
      for (int a = 0; a < 2; ++a) {
        const xbar::crossbar& f = design.fragment(a);
        ends[a].array = a;
        ends[a].kind =
            random.next_bool() ? xbar::wire_kind::row : xbar::wire_kind::column;
        const int size =
            ends[a].kind == xbar::wire_kind::row ? f.rows() : f.columns();
        ends[a].index = static_cast<int>(
            random.next_below(static_cast<std::uint64_t>(size)));
      }
      design.add_connection(ends[0], ends[1]);
    }
    const electrical_report report = analyze_electrical(design, {});
    path_limited += expect_oracle_paths(design, report);
  }
  EXPECT_GT(path_limited, 0) << "no output had fewer paths than entries";
}

/// Input row 0 reaches output row `rows - 1` through a staircase of
/// `steps` columns (2 * steps devices); one more column touches only the
/// output row, so that entry neighbour is reachable only through the
/// output itself and there is exactly one simple path.
xbar::crossbar dead_end_entry(int steps) {
  xbar::crossbar x(steps + 1, steps + 1);
  x.set_input_row(0);
  for (int i = 0; i < steps; ++i) {
    x.set_on(i, i);
    x.set_on(i + 1, i);
  }
  x.set_on(steps, steps);
  x.add_output(steps, "f");
  return x;
}

TEST(ElectricalTest, EntryReachableOnlyThroughTheOutputIsNotAPath) {
  const electrical_options options;
  const electrical_report report =
      analyze_electrical(dead_end_entry(1), options);
  ASSERT_EQ(report.outputs.size(), 1u);
  EXPECT_EQ(report.outputs[0].parallel_paths, 1);
  EXPECT_DOUBLE_EQ(report.outputs[0].best_off_resistance, options.model.r_off);
}

TEST(ElectricalTest, LongOnlyPathIsCountedExactly) {
  // 80 devices on the one simple path: a depth- or step-budgeted count
  // would give up and fall back to the entry degree (2).
  const electrical_options options;
  const electrical_report report =
      analyze_electrical(dead_end_entry(40), options);
  ASSERT_EQ(report.outputs.size(), 1u);
  const output_margin& m = report.outputs[0];
  EXPECT_EQ(m.min_on_devices, 80);
  EXPECT_EQ(m.parallel_paths, 1);
  EXPECT_DOUBLE_EQ(m.best_off_resistance, options.model.r_off);
}

TEST(ElectricalTest, OutputOnTheInputRowIsOnePath) {
  xbar::crossbar x(2, 2);
  x.set_input_row(0);
  for (int r = 0; r < 2; ++r)
    for (int c = 0; c < 2; ++c) x.set_on(r, c);
  x.add_output(0, "g");
  const electrical_report report = analyze_electrical(x, {});
  ASSERT_EQ(report.outputs.size(), 1u);
  EXPECT_EQ(report.outputs[0].min_on_devices, 0);
  EXPECT_EQ(report.outputs[0].parallel_paths, 1);
}

/// The acceptance direction: static "safe" implies MNA separability with
/// the same device corner — on every committed small benchmark, so the
/// bound derivation cannot drift optimistic. Some benchmarks must come out
/// statically safe or the test is vacuous.
TEST(ElectricalTest, StaticSafeImpliesMnaSeparable) {
  const electrical_options options;
  const double sense_level =
      options.model.threshold * options.model.v_in;
  int statically_safe = 0;
  for (frontend::benchmark_spec& spec : frontend::benchmark_suite()) {
    if (spec.net.input_count() > 16) continue;  // MNA sweep budget
    const synthesized s(std::move(spec.net));
    ASSERT_TRUE(s.ctx.mapped.has_value()) << spec.name;
    const electrical_report report =
        analyze_electrical(s.ctx.mapped->design, options);
    if (!report.safe) continue;
    ++statically_safe;
    const analog::margin_report truth = analog::measure_margins(
        s.ctx.mapped->design, s.net.input_count(), options.model);
    EXPECT_TRUE(truth.separable) << spec.name;
    EXPECT_GE(truth.min_high_voltage, sense_level) << spec.name;
    EXPECT_LT(truth.max_low_voltage, sense_level) << spec.name;
  }
  EXPECT_GT(statically_safe, 0)
      << "no benchmark was statically safe; the agreement test is vacuous";
}

TEST(ElectricalTest, VerifyPassWithElectricalKeepsDesignsByteIdentical) {
  // --verify-electrical: a synthesize request whose analysis runs the ELC
  // family. The analysis observes; it must never change the design.
  api::request_v1 request;
  request.op = "synthesize";
  request.source.text = to_blif(frontend::make_mux_tree(2));
  request.synthesis.time_limit_seconds = 5.0;

  const api::response_v1 plain = api::handle(request);
  ASSERT_TRUE(plain.ok) << plain.error_message;
  EXPECT_FALSE(plain.verification.ran);

  request.synthesis.verify = true;
  request.lint.electrical = true;
  for (const int threads : {1, 2, 8}) {
    request.synthesis.threads = threads;
    const api::response_v1 verified = api::handle(request);
    ASSERT_TRUE(verified.ok) << verified.error_message;
    EXPECT_TRUE(verified.verification.ran);
    bool electrical_ran = false;
    for (const api::diagnostic_v1& d : verified.diagnostics)
      if (d.check.starts_with("ELC")) electrical_ran = true;
    EXPECT_TRUE(electrical_ran) << threads << " threads";
    EXPECT_EQ(verified.design_text, plain.design_text) << threads << " threads";
  }
}

TEST(ElectricalTest, AnalyzerEmitsElcFamilyAndFillsCache) {
  const synthesized s(frontend::make_decoder(3));
  artifacts a = make_artifacts(s.ctx);
  electrical_options options;
  a.electrical = &options;
  analysis_cache cache;
  a.cache = &cache;

  const report r = analyze(a);
  bool summary_seen = false;
  for (const diagnostic& d : r.diagnostics())
    if (d.check_id == "ELC002") summary_seen = true;
  EXPECT_TRUE(summary_seen);
  ASSERT_TRUE(cache.electrical.has_value());
  EXPECT_FALSE(cache.electrical->outputs.empty());

  // Without the options pointer the family must stay silent.
  artifacts quiet = make_artifacts(s.ctx);
  const report qr = analyze(quiet);
  for (const diagnostic& d : qr.diagnostics())
    EXPECT_NE(d.check_id.substr(0, 3), "ELC");
}

}  // namespace
}  // namespace compact::verify
