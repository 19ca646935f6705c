// End-to-end coverage of the ILP-backed OCT engine (the paper's Section
// VI-A route: vertex cover via ILP): label, map, validate.
#include <gtest/gtest.h>

#include "core/labelers.hpp"
#include "core/mapping.hpp"
#include "frontend/benchgen.hpp"
#include "frontend/to_bdd.hpp"
#include "xbar/equivalence.hpp"

namespace compact::core {
namespace {

TEST(OctEngineTest, IlpEngineSynthesizesValidDesigns) {
  oct_label_options options;
  options.engine = graph::oct_engine::ilp;
  options.time_limit_seconds = 20.0;

  const frontend::network net = frontend::make_comparator(3);
  bdd::manager m(net.input_count());
  const frontend::sbdd built = frontend::build_sbdd(net, m);
  const bdd_graph g = build_bdd_graph(m, built.roots, built.names);
  const oct_label_result labeled = label_minimal_semiperimeter(g, options);
  const mapping_result mapped = map_to_crossbar(g, labeled.l);
  const xbar::equivalence_report report = xbar::validate(
      mapped.design, m, built.roots, built.names, net.input_count());
  EXPECT_TRUE(report.equivalent) << xbar::verdict_text(report);
}

TEST(OctEngineTest, EnginesAgreeOnSemiperimeterWhenBothProve) {
  const frontend::network net = frontend::make_parity(5, 1);
  bdd::manager m(net.input_count());
  const frontend::sbdd built = frontend::build_sbdd(net, m);
  const bdd_graph g = build_bdd_graph(m, built.roots, built.names);

  oct_label_options bnb;
  bnb.engine = graph::oct_engine::bnb;
  bnb.time_limit_seconds = 20.0;
  oct_label_options ilp = bnb;
  ilp.engine = graph::oct_engine::ilp;
  const oct_label_result a = label_minimal_semiperimeter(g, bnb);
  const oct_label_result b = label_minimal_semiperimeter(g, ilp);
  if (a.optimal && b.optimal) {
    EXPECT_EQ(compute_stats(a.l).semiperimeter,
              compute_stats(b.l).semiperimeter);
  }
}

}  // namespace
}  // namespace compact::core
