#include <gtest/gtest.h>

#include "core/compact.hpp"
#include "core/labelers.hpp"
#include "frontend/benchgen.hpp"
#include "frontend/to_bdd.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace compact::core {
namespace {

bdd_graph graph_of(const frontend::network& net, bdd::manager& m) {
  const frontend::sbdd built = frontend::build_sbdd(net, m);
  return build_bdd_graph(m, built.roots, built.names);
}

TEST(LabelOctTest, FeasibleAndAlignedOnBenchmarks) {
  for (const auto& spec :
       {frontend::make_ripple_adder(4), frontend::make_decoder(3),
        frontend::make_comparator(4), frontend::make_parity(6, 2)}) {
    bdd::manager m(spec.input_count());
    const bdd_graph g = graph_of(spec, m);
    const oct_label_result r = label_minimal_semiperimeter(g);
    EXPECT_TRUE(is_feasible(g.g, r.l)) << spec.name();
    EXPECT_TRUE(satisfies_alignment(g, r.l)) << spec.name();
    EXPECT_TRUE(r.optimal) << spec.name();
  }
}

TEST(LabelOctTest, SemiperimeterIsNPlusOctPlusPromotions) {
  // Alignment is part of the transversal, so promotions are always 0.
  const frontend::network net = frontend::make_ripple_adder(4);
  bdd::manager m(net.input_count());
  const bdd_graph g = graph_of(net, m);
  const oct_label_result r = label_minimal_semiperimeter(g);
  const labeling_stats s = compute_stats(r.l);
  EXPECT_EQ(static_cast<std::size_t>(s.semiperimeter),
            g.g.node_count() + r.oct_size + r.promoted);
}

TEST(LabelOctTest, BipartiteGraphGetsNoVhWithoutAlignment) {
  // A single variable f = x0: graph is an edge (bipartite).
  bdd::manager m(1);
  const bdd_graph g = build_bdd_graph(m, {m.var(0)}, {"f"});
  oct_label_options options;
  options.alignment = false;
  const oct_label_result r = label_minimal_semiperimeter(g, options);
  EXPECT_EQ(r.oct_size, 0u);
  EXPECT_EQ(r.promoted, 0u);
  const labeling_stats s = compute_stats(r.l);
  EXPECT_EQ(s.semiperimeter, 2);  // n = 2, k = 0
}

TEST(LabelOctTest, AlignmentPromotesWhenRootAndTerminalCollide) {
  // f = x0: root and terminal are adjacent, so both cannot be H;
  // alignment must make exactly one of them VH.
  bdd::manager m(1);
  const bdd_graph g = build_bdd_graph(m, {m.var(0)}, {"f"});
  const oct_label_result r = label_minimal_semiperimeter(g);
  EXPECT_TRUE(satisfies_alignment(g, r.l));
  EXPECT_EQ(r.oct_size + r.promoted, 1u);
  const labeling_stats s = compute_stats(r.l);
  EXPECT_EQ(s.semiperimeter, 3);
}

TEST(LabelOctTest, MinimalityOnOddCycleBddGraphs) {
  // Random small functions: the OCT labeling must use no more VH labels
  // than the trivial all-VH labeling, and stats must be consistent.
  rng random(71);
  for (int t = 0; t < 10; ++t) {
    const int n = 4;
    bdd::manager m(n);
    bdd::node_handle f = m.constant(false);
    for (int c = 0; c < 4; ++c) {
      bdd::node_handle cube = m.constant(true);
      for (int v = 0; v < n; ++v) {
        const auto roll = random.next_below(3);
        if (roll == 0) cube = m.apply_and(cube, m.var(v));
        if (roll == 1) cube = m.apply_and(cube, m.nvar(v));
      }
      f = m.apply_or(f, cube);
    }
    if (m.is_terminal(f)) continue;
    const bdd_graph g = build_bdd_graph(m, {f}, {"f"});
    const oct_label_result r = label_minimal_semiperimeter(g);
    const labeling_stats s = compute_stats(r.l);
    EXPECT_LE(s.vh_count, static_cast<int>(g.g.node_count()));
    EXPECT_LT(s.semiperimeter, 2 * static_cast<int>(g.g.node_count()) + 1);
  }
}

TEST(LabelOctTest, BalancingNeverIncreasesSemiperimeter) {
  const frontend::network net = frontend::make_decoder(4);
  bdd::manager m(net.input_count());
  const bdd_graph g = graph_of(net, m);
  oct_label_options balanced;
  balanced.balance = true;
  oct_label_options unbalanced;
  unbalanced.balance = false;
  const labeling_stats sb =
      compute_stats(label_minimal_semiperimeter(g, balanced).l);
  const labeling_stats su =
      compute_stats(label_minimal_semiperimeter(g, unbalanced).l);
  EXPECT_EQ(sb.semiperimeter, su.semiperimeter);
  EXPECT_LE(sb.max_dimension, su.max_dimension);
}

// A starved Method-1 run reports a certified gap instead of 0: add32's
// graph (benchmarks/add32.blif) cannot close in 10 ms, and its gap comes
// from the engine's odd-cycle packing bound.
TEST(LabelOctTest, TimedOutRunReportsCertifiedGap) {
  const frontend::network net = frontend::make_ripple_adder(32);
  bdd::manager m(net.input_count());
  const bdd_graph g = graph_of(net, m);
  labeler_request request;
  request.time_limit_seconds = 0.01;
  const labeler_result starved = find_labeler("oct").label(g, request);
  EXPECT_FALSE(starved.optimal);
  EXPECT_GT(starved.relative_gap, 0.0);
  EXPECT_LT(starved.relative_gap, 1.0);
  EXPECT_TRUE(is_feasible(g.g, starved.l));
  EXPECT_TRUE(satisfies_alignment(g, starved.l));

  const frontend::network small = frontend::make_ripple_adder(4);
  bdd::manager m4(small.input_count());
  const bdd_graph g4 = graph_of(small, m4);
  const labeler_result proven = find_labeler("oct").label(g4, {});
  EXPECT_TRUE(proven.optimal);
  EXPECT_EQ(proven.relative_gap, 0.0);
}

// graph.oct.search_nodes is a deterministic effort count: equal on a repeat
// and at any thread count (arbiter8 is benchmarks/arbiter8.blif).
TEST(LabelOctTest, SearchNodeCounterIsDeterministic) {
  const frontend::network net = frontend::make_arbiter(8);
  const bool was_enabled = metrics_enabled();
  set_metrics_enabled(true);
  const auto nodes_for = [&net](int threads) {
    metric_counter& counter =
        global_metrics().counter("graph.oct.search_nodes");
    const std::uint64_t before = counter.value();
    synthesis_options options;
    options.labeler = "oct";
    options.parallel.threads = threads;
    (void)synthesize(net, options);
    return counter.value() - before;
  };
  const std::uint64_t serial = nodes_for(1);
  EXPECT_GT(serial, 0u);
  EXPECT_EQ(nodes_for(1), serial);
  EXPECT_EQ(nodes_for(8), serial);
  set_metrics_enabled(was_enabled);
}

TEST(LabelOctTest, EmptyGraph) {
  bdd::manager m(1);
  const bdd_graph g = build_bdd_graph(m, {m.constant(true)}, {"one"});
  const oct_label_result r = label_minimal_semiperimeter(g);
  EXPECT_TRUE(r.l.label_of.empty());
  EXPECT_TRUE(r.optimal);
}

}  // namespace
}  // namespace compact::core
