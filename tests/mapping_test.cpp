#include <gtest/gtest.h>

#include "core/labelers.hpp"
#include "core/mapping.hpp"
#include "frontend/benchgen.hpp"
#include "frontend/to_bdd.hpp"
#include "xbar/equivalence.hpp"

namespace compact::core {
namespace {

TEST(MappingTest, DimensionsMatchLabelStats) {
  const frontend::network net = frontend::make_ripple_adder(3);
  bdd::manager m(net.input_count());
  const frontend::sbdd built = frontend::build_sbdd(net, m);
  const bdd_graph g = build_bdd_graph(m, built.roots, built.names);
  const oct_label_result r = label_minimal_semiperimeter(g);
  const mapping_result mapped = map_to_crossbar(g, r.l);
  const labeling_stats s = compute_stats(r.l);
  EXPECT_EQ(mapped.design.rows(), s.rows);
  EXPECT_EQ(mapped.design.columns(), s.columns);
  EXPECT_EQ(mapped.design.semiperimeter(), s.semiperimeter);
  EXPECT_EQ(mapped.design.max_dimension(), s.max_dimension);
}

TEST(MappingTest, InputBottomOutputsTop) {
  const frontend::network net = frontend::make_comparator(2);
  bdd::manager m(net.input_count());
  const frontend::sbdd built = frontend::build_sbdd(net, m);
  const bdd_graph g = build_bdd_graph(m, built.roots, built.names);
  const oct_label_result r = label_minimal_semiperimeter(g);
  const mapping_result mapped = map_to_crossbar(g, r.l);
  // Input = bottom-most wordline.
  EXPECT_EQ(mapped.design.input_row(), mapped.design.rows() - 1);
  // Outputs occupy the top rows.
  for (const xbar::output_port& o : mapped.design.outputs())
    EXPECT_LT(o.row, static_cast<int>(mapped.design.outputs().size()));
}

TEST(MappingTest, ActiveDevicesEqualGraphEdges) {
  // Every graph edge programs exactly one literal device.
  const frontend::network net = frontend::make_parity(5, 1);
  bdd::manager m(net.input_count());
  const frontend::sbdd built = frontend::build_sbdd(net, m);
  const bdd_graph g = build_bdd_graph(m, built.roots, built.names);
  const oct_label_result r = label_minimal_semiperimeter(g);
  const mapping_result mapped = map_to_crossbar(g, r.l);
  EXPECT_EQ(mapped.design.active_device_count(),
            static_cast<int>(g.g.edge_count()));
}

TEST(MappingTest, VhNodesGetBridges) {
  // f = x0 forces one VH (root/terminal adjacency): its row/column junction
  // must hold an always-on device.
  bdd::manager m(1);
  const bdd_graph g = build_bdd_graph(m, {m.var(0)}, {"f"});
  const oct_label_result r = label_minimal_semiperimeter(g);
  const mapping_result mapped = map_to_crossbar(g, r.l);
  int on_devices = 0;
  for (int row = 0; row < mapped.design.rows(); ++row)
    for (int col = 0; col < mapped.design.columns(); ++col)
      if (mapped.design.at(row, col).kind == xbar::literal_kind::on)
        ++on_devices;
  EXPECT_EQ(on_devices, compute_stats(r.l).vh_count);
}

TEST(MappingTest, MappedDesignIsValid) {
  const frontend::network net = frontend::make_mux_tree(2);
  bdd::manager m(net.input_count());
  const frontend::sbdd built = frontend::build_sbdd(net, m);
  const bdd_graph g = build_bdd_graph(m, built.roots, built.names);
  const oct_label_result r = label_minimal_semiperimeter(g);
  const mapping_result mapped = map_to_crossbar(g, r.l);
  const xbar::equivalence_report report = xbar::validate(
      mapped.design, m, built.roots, built.names, net.input_count());
  EXPECT_TRUE(report.equivalent) << xbar::verdict_text(report);
}

TEST(MappingTest, RejectsInfeasibleLabeling) {
  bdd::manager m(1);
  const bdd_graph g = build_bdd_graph(m, {m.var(0)}, {"f"});
  labeling bad;
  bad.label_of.assign(g.g.node_count(), vh_label::h);  // H-H edge
  EXPECT_THROW((void)map_to_crossbar(g, bad), error);
}

TEST(MappingTest, RejectsUnalignedLabeling) {
  bdd::manager m(2);
  const bdd::node_handle f = m.apply_and(m.var(0), m.var(1));
  const bdd_graph g = build_bdd_graph(m, {f}, {"f"});
  // Feasible 2-coloring that puts the root on a bitline.
  oct_label_options options;
  options.alignment = false;
  const oct_label_result r = label_minimal_semiperimeter(g, options);
  const bool root_has_row = r.l.has_row(g.outputs[0].node);
  const bool terminal_has_row = r.l.has_row(g.terminal_node);
  if (!root_has_row || !terminal_has_row) {
    EXPECT_THROW((void)map_to_crossbar(g, r.l), error);
  }
}

TEST(MappingTest, ConstantOutputsCarriedThrough) {
  bdd::manager m(1);
  const bdd_graph g =
      build_bdd_graph(m, {m.var(0), m.constant(true)}, {"f", "one"});
  const oct_label_result r = label_minimal_semiperimeter(g);
  const mapping_result mapped = map_to_crossbar(g, r.l);
  ASSERT_EQ(mapped.design.constant_outputs().size(), 1u);
  EXPECT_EQ(mapped.design.constant_outputs()[0].first, "one");
}

}  // namespace
}  // namespace compact::core
