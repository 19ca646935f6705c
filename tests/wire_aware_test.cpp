#include <gtest/gtest.h>

#include "analog/wire_aware.hpp"
#include "core/compact.hpp"
#include "frontend/benchgen.hpp"
#include "xbar/evaluate.hpp"

namespace compact::analog {
namespace {

xbar::crossbar single_path() {
  xbar::crossbar x(2, 1);
  x.set_input_row(1);
  x.add_output(0, "f");
  x.set_on(1, 0);
  x.set_literal(0, 0, 0, true);
  return x;
}

TEST(WireAwareTest, TinyWireResistanceMatchesIdealModel) {
  wire_model model;
  model.r_wire = 1e-3;  // essentially ideal wires
  const xbar::crossbar x = single_path();
  for (bool v : {false, true}) {
    const analog_result ideal = simulate(x, {v}, model.device);
    const wire_aware_result wired = simulate_wire_aware(x, {v}, model);
    ASSERT_TRUE(wired.converged);
    EXPECT_NEAR(wired.output_voltages[0], ideal.output_voltages[0], 5e-3);
    EXPECT_EQ(wired.output_logic[0], ideal.output_logic[0]);
  }
}

TEST(WireAwareTest, DigitalAgreementAtModerateWireResistance) {
  const frontend::network net = frontend::make_comparator(2);
  core::synthesis_options options;
  options.labeler = "oct";
  const core::synthesis_result r = core::synthesize(net, options);
  wire_model model;
  model.r_wire = 0.5;  // well below R_on = 100 ohm
  for (int v = 0; v < 16; ++v) {
    std::vector<bool> a(4);
    for (int i = 0; i < 4; ++i) a[static_cast<std::size_t>(i)] = (v >> i) & 1;
    const wire_aware_result sim = simulate_wire_aware(r.design, a, model);
    ASSERT_TRUE(sim.converged);
    for (std::size_t o = 0; o < r.design.outputs().size(); ++o)
      EXPECT_EQ(sim.output_logic[o],
                xbar::evaluate_output(r.design, a, r.design.outputs()[o].name))
          << "v=" << v;
  }
}

TEST(WireAwareTest, IrDropGrowsWithWireResistance) {
  const frontend::network net = frontend::make_parity(5, 1);
  core::synthesis_options options;
  options.labeler = "oct";
  const core::synthesis_result r = core::synthesize(net, options);

  wire_model thin;
  thin.r_wire = 0.05;
  wire_model thick;
  thick.r_wire = 5.0;
  const double drop_thin = worst_ir_drop(r.design, net.input_count(), thin, 8);
  const double drop_thick =
      worst_ir_drop(r.design, net.input_count(), thick, 8);
  EXPECT_GE(drop_thick, drop_thin);
  EXPECT_GE(drop_thin, 0.0);
}

TEST(WireAwareTest, RejectsNonPositiveWireResistance) {
  wire_model model;
  model.r_wire = 0.0;
  EXPECT_THROW((void)simulate_wire_aware(single_path(), {true}, model),
               error);
}

TEST(WireAwareTest, ReportsCgIterationCount) {
  const wire_aware_result sim =
      simulate_wire_aware(single_path(), {true}, {});
  EXPECT_TRUE(sim.converged);
  EXPECT_GT(sim.cg_iterations, 0);
}

}  // namespace
}  // namespace compact::analog
