#include <gtest/gtest.h>

#include "core/labelers.hpp"
#include "frontend/benchgen.hpp"
#include "frontend/to_bdd.hpp"
#include "util/metrics.hpp"

namespace compact::core {
namespace {

bdd_graph graph_of(const frontend::network& net, bdd::manager& m) {
  const frontend::sbdd built = frontend::build_sbdd(net, m);
  return build_bdd_graph(m, built.roots, built.names);
}

TEST(LabelMipTest, FeasibleAndAlignedOnSmallBenchmarks) {
  for (const auto& net :
       {frontend::make_parity(5, 1), frontend::make_comparator(3),
        frontend::make_mux_tree(2)}) {
    bdd::manager m(net.input_count());
    const bdd_graph g = graph_of(net, m);
    mip_label_options options;
    options.time_limit_seconds = 5.0;
    const mip_label_result r = label_weighted(g, options);
    EXPECT_TRUE(is_feasible(g.g, r.l)) << net.name();
    EXPECT_TRUE(satisfies_alignment(g, r.l)) << net.name();
  }
}

TEST(LabelMipTest, GammaOneMatchesOctSemiperimeter) {
  // With gamma = 1 the MIP minimizes S alone under alignment; its optimum
  // must equal Method 1's aligned minimum n + k. The comparator and
  // int2float graphs are ones where running the OCT first and promoting
  // misaligned nodes afterwards missed that minimum.
  for (const auto& net :
       {frontend::make_parity(4, 1), frontend::make_comparator(2),
        frontend::make_int2float(4)}) {
    bdd::manager m(net.input_count());
    const bdd_graph g = graph_of(net, m);

    const oct_label_result oct = label_minimal_semiperimeter(g);
    ASSERT_TRUE(oct.optimal) << net.name();
    EXPECT_EQ(oct.promoted, 0u) << net.name();

    mip_label_options options;
    options.gamma = 1.0;
    options.time_limit_seconds = 10.0;
    options.warm_start_with_oct = false;  // no S >= n + k cut from Method 1
    const mip_label_result mip = label_weighted(g, options);
    ASSERT_TRUE(mip.optimal) << net.name();

    EXPECT_EQ(compute_stats(mip.l).semiperimeter,
              compute_stats(oct.l).semiperimeter)
        << net.name();
  }
}

TEST(LabelMipTest, GammaHalfNeverWorseInMaxDimension) {
  const frontend::network net = frontend::make_comparator(3);
  bdd::manager m(net.input_count());
  const bdd_graph g = graph_of(net, m);

  mip_label_options half;
  half.gamma = 0.5;
  half.time_limit_seconds = 5.0;
  const mip_label_result r_half = label_weighted(g, half);

  mip_label_options one;
  one.gamma = 1.0;
  one.time_limit_seconds = 5.0;
  const mip_label_result r_one = label_weighted(g, one);

  if (r_half.optimal && r_one.optimal) {
    EXPECT_LE(compute_stats(r_half.l).max_dimension,
              compute_stats(r_one.l).max_dimension);
    EXPECT_GE(compute_stats(r_half.l).semiperimeter,
              compute_stats(r_one.l).semiperimeter);
  }
}

TEST(LabelMipTest, TimeLimitStillYieldsValidLabeling) {
  const frontend::network net = frontend::make_ripple_adder(6);
  bdd::manager m(net.input_count());
  const bdd_graph g = graph_of(net, m);
  mip_label_options options;
  options.time_limit_seconds = 0.05;  // starved: warm start must carry it
  const mip_label_result r = label_weighted(g, options);
  EXPECT_TRUE(is_feasible(g.g, r.l));
  EXPECT_TRUE(satisfies_alignment(g, r.l));
  EXPECT_GE(r.relative_gap, 0.0);
}

TEST(LabelMipTest, TraceRecordsConvergence) {
  const frontend::network net = frontend::make_parity(4, 1);
  bdd::manager m(net.input_count());
  const bdd_graph g = graph_of(net, m);
  mip_label_options options;
  options.time_limit_seconds = 10.0;
  const mip_label_result r = label_weighted(g, options);
  ASSERT_FALSE(r.trace.empty());
  for (std::size_t i = 1; i < r.trace.size(); ++i)
    EXPECT_LE(r.trace[i].best_integer, r.trace[i - 1].best_integer + 1e-9);
}

// Method 1's labeling W (S = n + k, k proven minimum) is certified at a
// gamma when no labeling with more VH nodes can beat it by the D >= ceil(S/2)
// bound and no other minimum aligned transversal balances better; then
// label_weighted returns it without building the MIP. The objective must
// equal a search that never sees Method 1 (no warm start, no S >= n + k
// cut), and the instances whose W is not certified at a gamma (W is not
// optimal there, or only a search rules out labelings with more VH nodes)
// must still search.
struct certificate_case {
  frontend::network net;
  double certified_from;  // certified at every listed gamma from here up
};

void expect_certificate_agrees(const std::vector<certificate_case>& cases) {
  for (const certificate_case& c : cases) {
    bdd::manager m(c.net.input_count());
    const bdd_graph g = graph_of(c.net, m);
    const oct_label_result oct = label_minimal_semiperimeter(g);
    ASSERT_TRUE(oct.optimal) << c.net.name();
    for (const double gamma : {0.0, 0.1, 0.3, 0.4, 0.5, 0.7, 1.0}) {
      mip_label_options options;
      options.gamma = gamma;
      options.time_limit_seconds = 60.0;
      const mip_label_result fast = label_weighted(g, options);
      options.warm_start_with_oct = false;
      const mip_label_result searched = label_weighted(g, options);
      ASSERT_TRUE(fast.optimal) << c.net.name() << " gamma " << gamma;
      ASSERT_TRUE(searched.optimal) << c.net.name() << " gamma " << gamma;
      EXPECT_NEAR(fast.objective, searched.objective, 1e-9)
          << c.net.name() << " gamma " << gamma;
      if (gamma >= c.certified_from) {
        EXPECT_EQ(fast.nodes_explored, 0) << c.net.name() << " gamma " << gamma;
        EXPECT_EQ(fast.l.label_of, oct.l.label_of) << c.net.name();
        ASSERT_EQ(fast.trace.size(), 1u);
        EXPECT_EQ(fast.trace[0].relative_gap, 0.0);
        EXPECT_EQ(fast.best_bound, fast.objective);
      } else {
        EXPECT_GT(fast.nodes_explored, 0) << c.net.name() << " gamma " << gamma;
      }
    }
  }
}

TEST(LabelMipTest, CertificateAgreesWithSearchWithoutMethodOne) {
  expect_certificate_agrees({{frontend::make_comparator(3), 0.0},
                             {frontend::make_mux_tree(2), 1.0},
                             {frontend::make_mux_tree(3), 0.5},
                             {frontend::make_decoder(2), 0.5},
                             {frontend::make_decoder(3), 0.7},
                             {frontend::make_int2float(4), 0.5}});
}

// Priority encoders and parity trees, certified at every gamma; split from
// the test above only so that the three run in parallel.
TEST(LabelMipTest, CertificateAgreesOnPriorityEncoders) {
  std::vector<certificate_case> cases;
  for (int width = 5; width <= 12; ++width)
    cases.push_back({frontend::make_priority_encoder(width), 0.0});
  expect_certificate_agrees(cases);
}

TEST(LabelMipTest, CertificateAgreesOnParityTrees) {
  std::vector<certificate_case> cases;
  for (int bits = 8; bits <= 13; ++bits)
    cases.push_back({frontend::make_parity(bits, 2), 0.0});
  expect_certificate_agrees(cases);
}

// A graph whose minimum transversals outnumber the certificate's node
// limit: two aligned nodes, which every labeling puts on rows, beside five
// disjoint 5-cycles. Each of the 5^5 minimum transversals balances to
// R = 17 = S/2 + 1 against C = 15, so Method 1's labeling W is optimal, and
// under a 15-column budget the search proves it at its root (S >= 32 and
// C <= 15 give R >= 17). The enumeration is cut off at the limit, and the
// attempt must leave the search's answer unchanged: W, proven optimal.
TEST(LabelMipTest, CertificateCutOffByNodeLimitLeavesTheSearchAnswer) {
  const bool was_enabled = metrics_enabled();
  set_metrics_enabled(true);
  bdd_graph g;
  g.g = graph::undirected_graph(27);
  g.terminal_node = 0;
  g.outputs.push_back({1, "f"});
  for (int c = 0; c < 5; ++c)
    for (int i = 0; i < 5; ++i)
      g.g.add_edge(2 + 5 * c + i, 2 + 5 * c + (i + 1) % 5);
  const oct_label_result oct = label_minimal_semiperimeter(g);
  ASSERT_TRUE(oct.optimal);
  const labeling_stats stats = compute_stats(oct.l);
  ASSERT_EQ(stats.semiperimeter, 32);
  ASSERT_EQ(stats.rows, 17);
  ASSERT_EQ(stats.columns, 15);

  metric_counter& certified = global_metrics().counter("label_mip.certified");
  metric_counter& listed =
      global_metrics().counter("label_mip.certificate_search_nodes");
  for (const double gamma : {0.1, 0.5, 0.9}) {
    const std::uint64_t certified_before = certified.value();
    const std::uint64_t listed_before = listed.value();
    mip_label_options options;
    options.gamma = gamma;
    options.time_limit_seconds = 60.0;
    options.max_columns = 15;
    const mip_label_result r = label_weighted(g, options);
    EXPECT_EQ(certified.value(), certified_before) << "gamma " << gamma;
    EXPECT_EQ(listed.value() - listed_before, certificate_node_limit)
        << "gamma " << gamma;
    ASSERT_TRUE(r.optimal) << "gamma " << gamma;
    EXPECT_GT(r.nodes_explored, 0) << "gamma " << gamma;
    EXPECT_EQ(r.l.label_of, oct.l.label_of) << "gamma " << gamma;
    EXPECT_NEAR(r.objective, gamma * 32 + (1.0 - gamma) * 17, 1e-9)
        << "gamma " << gamma;
  }
  set_metrics_enabled(was_enabled);
}

// The branch-and-bound effort counters are deterministic: equal on a repeat
// and at any thread count, because every node LP is a pure function of its
// parent's basis and its own bounds. The instances and gammas are ones the
// Method 1 certificate cannot close, so the search really runs.
TEST(LabelMipTest, SearchEffortIsDeterministic) {
  const bool was_enabled = metrics_enabled();
  set_metrics_enabled(true);
  struct effort {
    long nodes = 0;
    std::uint64_t lp_iterations = 0;
    std::uint64_t dive_lp_iterations = 0;
    bool operator==(const effort& o) const {
      return nodes == o.nodes && lp_iterations == o.lp_iterations &&
             dive_lp_iterations == o.dive_lp_iterations;
    }
  };
  struct instance {
    frontend::network net;
    double gamma;
  };
  for (const instance& c : {instance{frontend::make_mux_tree(3), 0.3},
                            instance{frontend::make_int2float(4), 0.4}}) {
    bdd::manager m(c.net.input_count());
    const bdd_graph g = graph_of(c.net, m);
    const auto effort_at = [&g, &c](int threads) {
      metric_counter& lp = global_metrics().counter("milp.bnb.lp_iterations");
      metric_counter& dive =
          global_metrics().counter("milp.bnb.dive_lp_iterations");
      const std::uint64_t lp_before = lp.value();
      const std::uint64_t dive_before = dive.value();
      mip_label_options options;
      options.gamma = c.gamma;
      options.time_limit_seconds = 60.0;
      options.threads = threads;
      const mip_label_result r = label_weighted(g, options);
      EXPECT_TRUE(r.optimal);
      return effort{r.nodes_explored, lp.value() - lp_before,
                    dive.value() - dive_before};
    };
    const effort serial = effort_at(1);
    EXPECT_GT(serial.nodes, 0) << c.net.name();
    EXPECT_GT(serial.lp_iterations, 0u) << c.net.name();
    EXPECT_TRUE(effort_at(1) == serial) << c.net.name();
    EXPECT_TRUE(effort_at(8) == serial) << c.net.name();
  }
  set_metrics_enabled(was_enabled);
}

TEST(LabelMipTest, RejectsBadGamma) {
  bdd::manager m(1);
  const bdd_graph g = build_bdd_graph(m, {m.var(0)}, {"f"});
  mip_label_options options;
  options.gamma = 1.5;
  EXPECT_THROW((void)label_weighted(g, options), error);
}

TEST(LabelMipTest, EmptyGraphIsTrivial) {
  bdd::manager m(1);
  const bdd_graph g = build_bdd_graph(m, {m.constant(false)}, {"zero"});
  const mip_label_result r = label_weighted(g);
  EXPECT_TRUE(r.optimal);
  EXPECT_TRUE(r.l.label_of.empty());
}

}  // namespace
}  // namespace compact::core
