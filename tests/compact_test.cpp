#include <gtest/gtest.h>

#include "core/compact.hpp"
#include "frontend/benchgen.hpp"
#include "frontend/to_bdd.hpp"
#include "xbar/equivalence.hpp"

namespace compact::core {
namespace {

synthesis_options quick_mip() {
  synthesis_options options;
  options.labeler = "mip";
  options.time_limit_seconds = 6.0;
  return options;
}

synthesis_options oct_method() {
  synthesis_options options;
  options.labeler = "oct";
  return options;
}

TEST(CompactTest, PaperRunningExample) {
  // f = (a AND b) OR c from Figure 2/4.
  bdd::manager m(3);
  const bdd::node_handle f =
      m.apply_or(m.apply_and(m.var(0), m.var(1)), m.var(2));
  const synthesis_result r = synthesize(m, {f}, {"f"}, oct_method());
  // Graph: 4 nodes (a, b, c, 1). A valid minimal design has S <= 2n.
  EXPECT_EQ(r.stats.graph_nodes, 4u);
  EXPECT_LT(r.stats.semiperimeter, 8);
  const xbar::equivalence_report report =
      xbar::validate(r.design, m, {f}, {"f"}, 3);
  EXPECT_TRUE(report.equivalent) << xbar::verdict_text(report);
}

TEST(CompactTest, NetworksSynthesizeValidDesignsOctMethod) {
  for (const auto& net :
       {frontend::make_ripple_adder(3), frontend::make_decoder(3),
        frontend::make_priority_encoder(6), frontend::make_router(2)}) {
    bdd::manager m(net.input_count());
    const frontend::sbdd built = frontend::build_sbdd(net, m);
    const synthesis_result r =
        synthesize(m, built.roots, built.names, oct_method());
    const xbar::equivalence_report report = xbar::validate(
        r.design, m, built.roots, built.names, net.input_count());
    EXPECT_TRUE(report.equivalent)
        << net.name() << ": " << xbar::verdict_text(report);
    EXPECT_GT(r.stats.rows, 0) << net.name();
    EXPECT_EQ(r.stats.delay_steps, r.stats.rows + 1);
  }
}

TEST(CompactTest, NetworksSynthesizeValidDesignsMipMethod) {
  for (const auto& net :
       {frontend::make_comparator(3), frontend::make_mux_tree(2)}) {
    bdd::manager m(net.input_count());
    const frontend::sbdd built = frontend::build_sbdd(net, m);
    const synthesis_result r =
        synthesize(m, built.roots, built.names, quick_mip());
    const xbar::equivalence_report report = xbar::validate(
        r.design, m, built.roots, built.names, net.input_count());
    EXPECT_TRUE(report.equivalent)
        << net.name() << ": " << xbar::verdict_text(report);
  }
}

TEST(CompactTest, StatsSelfConsistent) {
  const frontend::network net = frontend::make_parity(6, 2);
  const synthesis_result r = synthesize(net, oct_method());
  EXPECT_EQ(r.stats.semiperimeter, r.stats.rows + r.stats.columns);
  EXPECT_EQ(r.stats.max_dimension, std::max(r.stats.rows, r.stats.columns));
  EXPECT_EQ(r.stats.area,
            static_cast<long long>(r.stats.rows) * r.stats.columns);
  EXPECT_EQ(r.stats.power_proxy, static_cast<int>(r.stats.graph_edges));
  EXPECT_GE(r.stats.synthesis_seconds, 0.0);
  // S = n + k.
  EXPECT_EQ(static_cast<std::size_t>(r.stats.semiperimeter),
            r.stats.graph_nodes + static_cast<std::size_t>(r.stats.vh_count));
}

TEST(CompactTest, SbddBeatsSeparateRobddsOnSharedLogic) {
  const frontend::network net = frontend::make_ripple_adder(4);
  const synthesis_result sbdd = synthesize(net, oct_method());
  synthesis_options options = oct_method();
  options.separate_robdds = true;
  const synthesis_result separate = synthesize(net, options);
  EXPECT_LT(sbdd.stats.graph_nodes, separate.stats.graph_nodes);
  EXPECT_LT(sbdd.stats.semiperimeter, separate.stats.semiperimeter);
}

TEST(CompactTest, SeparateRobddsStillValid) {
  const frontend::network net = frontend::make_comparator(3);
  synthesis_options options = oct_method();
  options.separate_robdds = true;
  const synthesis_result r = synthesize(net, options);
  // Validate against a fresh SBDD of the same network.
  bdd::manager m(net.input_count());
  const frontend::sbdd built = frontend::build_sbdd(net, m);
  const xbar::equivalence_report report = xbar::validate(
      r.design, m, built.roots, built.names, net.input_count());
  EXPECT_TRUE(report.equivalent) << xbar::verdict_text(report);
}

TEST(CompactTest, ConstantOutputsHandled) {
  frontend::network net;
  const int a = net.add_input("a");
  net.set_output(net.add_const(true), "one");
  net.set_output(net.add_buf(a), "f");
  const synthesis_result r = synthesize(net, oct_method());
  bool found = false;
  for (const auto& [name, value] : r.design.constant_outputs())
    if (name == "one" && value) found = true;
  EXPECT_TRUE(found);
}

TEST(CompactTest, OutputThatIsAnotherOutputsSubfunction) {
  // g = a AND b is an internal node of f = (a AND b) OR c: both must land
  // on wordlines and read correctly.
  bdd::manager m(3);
  const bdd::node_handle g = m.apply_and(m.var(0), m.var(1));
  const bdd::node_handle f = m.apply_or(g, m.var(2));
  const synthesis_result r = synthesize(m, {f, g}, {"f", "g"}, oct_method());
  const xbar::equivalence_report report =
      xbar::validate(r.design, m, {f, g}, {"f", "g"}, 3);
  EXPECT_TRUE(report.equivalent) << xbar::verdict_text(report);
}

TEST(CompactTest, DuplicateOutputsShareOneWordline) {
  bdd::manager m(2);
  const bdd::node_handle f = m.apply_xor(m.var(0), m.var(1));
  const synthesis_result r =
      synthesize(m, {f, f, f}, {"f1", "f2", "f3"}, oct_method());
  ASSERT_EQ(r.design.outputs().size(), 3u);
  EXPECT_EQ(r.design.outputs()[0].row, r.design.outputs()[1].row);
  EXPECT_EQ(r.design.outputs()[0].row, r.design.outputs()[2].row);
  const xbar::equivalence_report report = xbar::validate(
      r.design, m, {f, f, f}, {"f1", "f2", "f3"}, 2);
  EXPECT_TRUE(report.equivalent) << xbar::verdict_text(report);
}

TEST(CompactTest, ComplementaryOutputs) {
  // f and !f share every node except polarity structure; both aligned.
  bdd::manager m(3);
  const bdd::node_handle f =
      m.apply_or(m.apply_and(m.var(0), m.var(1)), m.var(2));
  const bdd::node_handle nf = m.apply_not(f);
  const synthesis_result r = synthesize(m, {f, nf}, {"f", "nf"}, oct_method());
  const xbar::equivalence_report report =
      xbar::validate(r.design, m, {f, nf}, {"f", "nf"}, 3);
  EXPECT_TRUE(report.equivalent) << xbar::verdict_text(report);
}

TEST(CompactTest, MipTraceExposedInStats) {
  const frontend::network net = frontend::make_parity(4, 1);
  const synthesis_result r = synthesize(net, quick_mip());
  EXPECT_FALSE(r.stats.trace.empty());
}

}  // namespace
}  // namespace compact::core
