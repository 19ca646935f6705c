// End-to-end flows across modules: file format -> network -> BDD -> labeling
// -> crossbar -> digital + analog signoff, mirroring Figure 3 of the paper.
#include <gtest/gtest.h>

#include <sstream>

#include "analog/mna.hpp"
#include "core/compact.hpp"
#include "frontend/benchgen.hpp"
#include "frontend/blif.hpp"
#include "frontend/pla.hpp"
#include "frontend/to_bdd.hpp"
#include "magic/contra.hpp"
#include "util/rng.hpp"
#include "xbar/equivalence.hpp"
#include "xbar/evaluate.hpp"

namespace compact {
namespace {

/// The prior-work staircase mapping [16]: the all-VH labeler.
core::synthesis_options staircase() {
  core::synthesis_options options;
  options.labeler = "staircase";
  return options;
}

TEST(IntegrationTest, BlifToValidatedCrossbar) {
  const frontend::network net = frontend::parse_blif(R"(
.model votes
.inputs a b c d
.outputs maj any
.names a b c d maj
11-- 1
1-1- 1
1--1 1
-11- 1
-1-1 1
--11 1
.names a b c d any
1--- 1
-1-- 1
--1- 1
---1 1
.end
)");
  core::synthesis_options options;
  options.method = core::labeling_method::minimal_semiperimeter;
  bdd::manager m(net.input_count());
  const frontend::sbdd built = frontend::build_sbdd(net, m);
  const core::synthesis_result r =
      core::synthesize(m, built.roots, built.names, options);
  const xbar::equivalence_report report = xbar::validate(
      r.design, m, built.roots, built.names, net.input_count());
  EXPECT_TRUE(report.equivalent) << xbar::verdict_text(report);
}

TEST(IntegrationTest, PlaToValidatedCrossbar) {
  const frontend::network net = frontend::parse_pla_string(
      ".i 4\n.o 2\n"
      "11-- 10\n"
      "--11 01\n"
      "1--1 11\n"
      ".e\n");
  core::synthesis_options options;
  options.method = core::labeling_method::minimal_semiperimeter;
  bdd::manager m(net.input_count());
  const frontend::sbdd built = frontend::build_sbdd(net, m);
  const core::synthesis_result r =
      core::synthesize(m, built.roots, built.names, options);
  const xbar::equivalence_report report = xbar::validate(
      r.design, m, built.roots, built.names, net.input_count());
  EXPECT_TRUE(report.equivalent) << xbar::verdict_text(report);
}

TEST(IntegrationTest, AnalogSignoffAgreesWithDigital) {
  // The paper validates crossbars with SPICE; here the MNA solver plays
  // that role on the full synthesized design.
  const frontend::network net = frontend::make_comparator(2);
  core::synthesis_options options;
  options.method = core::labeling_method::minimal_semiperimeter;
  bdd::manager m(net.input_count());
  const frontend::sbdd built = frontend::build_sbdd(net, m);
  const core::synthesis_result r =
      core::synthesize(m, built.roots, built.names, options);

  for (std::uint64_t v = 0; v < 16; ++v) {
    std::vector<bool> a(4);
    for (int i = 0; i < 4; ++i) a[static_cast<std::size_t>(i)] = (v >> i) & 1;
    const analog::analog_result sim = analog::simulate(r.design, a);
    for (std::size_t o = 0; o < r.design.outputs().size(); ++o) {
      const bool digital = xbar::evaluate_output(
          r.design, a, r.design.outputs()[o].name);
      EXPECT_EQ(sim.output_logic[o], digital)
          << "v=" << v << " output " << r.design.outputs()[o].name;
    }
  }
}

TEST(IntegrationTest, WholeSuiteSynthesizesAndValidates) {
  core::synthesis_options options;
  options.method = core::labeling_method::minimal_semiperimeter;
  options.time_limit_seconds = 8.0;
  for (const frontend::benchmark_spec& spec : frontend::benchmark_suite()) {
    bdd::manager m(spec.net.input_count());
    const frontend::sbdd built = frontend::build_sbdd(spec.net, m);
    const core::synthesis_result r =
        core::synthesize(m, built.roots, built.names, options);
    const xbar::equivalence_report report = xbar::validate(
        r.design, m, built.roots, built.names, spec.net.input_count());
    EXPECT_TRUE(report.equivalent)
        << spec.name << ": " << xbar::verdict_text(report);
    // Headline shape: S = n + k stays well below the staircase 2n.
    EXPECT_LT(r.stats.semiperimeter,
              2 * static_cast<int>(r.stats.graph_nodes))
        << spec.name;
  }
}

TEST(IntegrationTest, ThreeBackendsAgreeOnFunctionality) {
  // COMPACT crossbar, staircase crossbar and the MAGIC LUT network all
  // realize the same functions.
  const frontend::network net = frontend::make_alu(2);
  bdd::manager m(net.input_count());
  const frontend::sbdd built = frontend::build_sbdd(net, m);

  core::synthesis_options options;
  options.method = core::labeling_method::minimal_semiperimeter;
  const core::synthesis_result flow =
      core::synthesize(m, built.roots, built.names, options);
  const core::synthesis_result stair =
      core::synthesize(m, built.roots, built.names, staircase());
  const magic::gate_network gates = magic::decompose(net);
  const magic::lut_mapping luts = magic::map_to_luts(gates);

  rng random(2);
  for (int t = 0; t < 64; ++t) {
    std::vector<bool> a(static_cast<std::size_t>(net.input_count()));
    for (std::size_t i = 0; i < a.size(); ++i) a[i] = random.next_bool();
    const std::vector<bool> expected = net.simulate(a);
    const std::vector<bool> lut_out = magic::evaluate_luts(gates, luts, a);
    for (std::size_t o = 0; o < net.outputs().size(); ++o) {
      const std::string& name = net.outputs()[o].name;
      EXPECT_EQ(xbar::evaluate_output(flow.design, a, name), expected[o]);
      EXPECT_EQ(xbar::evaluate_output(stair.design, a, name), expected[o]);
      EXPECT_EQ(lut_out[o], expected[o]);
    }
  }
}

}  // namespace
}  // namespace compact
