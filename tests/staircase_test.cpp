// The prior-work baseline [16] as the "staircase" labeler: every BDD node
// on a wordline and a bitline (S = 2n); under separate ROBDDs it is the
// whole prior-work flow.
#include <gtest/gtest.h>

#include "core/compact.hpp"
#include "frontend/benchgen.hpp"
#include "frontend/to_bdd.hpp"
#include "xbar/equivalence.hpp"

namespace compact::core {
namespace {

synthesis_options staircase() {
  synthesis_options options;
  options.labeler = "staircase";
  return options;
}

TEST(StaircaseTest, SemiperimeterIsTwoN) {
  bdd::manager m(3);
  const bdd::node_handle f =
      m.apply_or(m.apply_and(m.var(0), m.var(1)), m.var(2));
  const synthesis_result r = synthesize(m, {f}, {"f"}, staircase());
  EXPECT_EQ(static_cast<std::size_t>(r.stats.semiperimeter),
            2 * r.stats.graph_nodes);
  EXPECT_EQ(r.stats.rows, r.stats.columns);
  EXPECT_TRUE(r.stats.optimal);
}

TEST(StaircaseTest, DesignsAreValid) {
  for (const auto& net :
       {frontend::make_ripple_adder(3), frontend::make_decoder(3),
        frontend::make_parity(5, 1)}) {
    bdd::manager m(net.input_count());
    const frontend::sbdd built = frontend::build_sbdd(net, m);
    const synthesis_result r =
        synthesize(m, built.roots, built.names, staircase());
    const xbar::equivalence_report report = xbar::validate(
        r.design, m, built.roots, built.names, net.input_count());
    EXPECT_TRUE(report.equivalent)
        << net.name() << ": " << xbar::verdict_text(report);
  }
}

TEST(StaircaseTest, NetworkFlowValidAndBiggerThanCompact) {
  const frontend::network net = frontend::make_comparator(3);
  synthesis_options separate = staircase();
  separate.separate_robdds = true;
  const synthesis_result stair = synthesize(net, separate);

  bdd::manager m(net.input_count());
  const frontend::sbdd built = frontend::build_sbdd(net, m);
  const xbar::equivalence_report report = xbar::validate(
      stair.design, m, built.roots, built.names, net.input_count());
  EXPECT_TRUE(report.equivalent) << xbar::verdict_text(report);

  synthesis_options oct;
  oct.labeler = "oct";
  const synthesis_result compact_result = synthesize(net, oct);
  // The headline claim, in miniature: COMPACT is strictly smaller.
  EXPECT_LT(compact_result.stats.semiperimeter, stair.stats.semiperimeter);
  EXPECT_LT(compact_result.stats.area, stair.stats.area);
  EXPECT_LT(compact_result.stats.rows, stair.stats.rows);
}

TEST(StaircaseTest, EveryNodeBridged) {
  bdd::manager m(2);
  const bdd::node_handle f = m.apply_xor(m.var(0), m.var(1));
  const synthesis_result r = synthesize(m, {f}, {"f"}, staircase());
  int bridges = 0;
  for (int row = 0; row < r.design.rows(); ++row)
    for (int col = 0; col < r.design.columns(); ++col)
      if (r.design.at(row, col).kind == xbar::literal_kind::on) ++bridges;
  EXPECT_EQ(static_cast<std::size_t>(bridges), r.stats.graph_nodes);
}

}  // namespace
}  // namespace compact::core
