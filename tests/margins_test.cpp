#include <gtest/gtest.h>

#include "analog/margins.hpp"
#include "core/compact.hpp"
#include "frontend/benchgen.hpp"

namespace compact::analog {
namespace {

xbar::crossbar single_path_design() {
  xbar::crossbar x(2, 1);
  x.set_input_row(1);
  x.add_output(0, "f");
  x.set_on(1, 0);
  x.set_literal(0, 0, 0, true);
  return x;
}

TEST(MarginsTest, SinglePathMarginsMatchVoltageDivider) {
  const device_model model;
  const margin_report report =
      measure_margins(single_path_design(), 1, model);
  EXPECT_EQ(report.checked_assignments, 2);
  EXPECT_TRUE(report.separable);
  const double expected_high =
      model.r_sense / (model.r_sense + 2.0 * model.r_on);
  EXPECT_NEAR(report.min_high_voltage, expected_high, 1e-3);
  EXPECT_LT(report.max_low_voltage, 0.01);
}

TEST(MarginsTest, SynthesizedDesignHasPositiveMargin) {
  const frontend::network net = frontend::make_mux_tree(2);
  core::synthesis_options options;
  options.labeler = "oct";
  const core::synthesis_result r = core::synthesize(net, options);
  const margin_report report =
      measure_margins(r.design, net.input_count());
  EXPECT_TRUE(report.separable);
  EXPECT_GT(report.margin, 0.1);  // the default corner has ample headroom
}

TEST(MarginsTest, MarginShrinksWithDeviceRatio) {
  const frontend::network net = frontend::make_comparator(2);
  core::synthesis_options options;
  options.labeler = "oct";
  const core::synthesis_result r = core::synthesize(net, options);

  device_model strong;   // r_off/r_on = 1e6
  strong.r_off = strong.r_on * 1e6;
  device_model weak;     // r_off/r_on = 1e2
  weak.r_off = weak.r_on * 1e2;
  const margin_report strong_report =
      measure_margins(r.design, net.input_count(), strong);
  const margin_report weak_report =
      measure_margins(r.design, net.input_count(), weak);
  EXPECT_GT(strong_report.margin, weak_report.margin);
}

TEST(MarginsTest, MinimalWorkingRatioIsReasonable) {
  const double ratio = minimal_working_ratio(single_path_design(), 1);
  EXPECT_GT(ratio, 1.0);
  EXPECT_LE(ratio, 1e8);
  // A trivial single-device path should work at modest ratios already.
  EXPECT_LE(ratio, 1e4);
}

TEST(MarginsTest, SamplingModeAboveLimit) {
  margin_options options;
  options.exhaustive_limit = 4;
  options.samples = 64;
  const margin_report report =
      measure_margins(single_path_design(), 8, {}, options);
  EXPECT_EQ(report.checked_assignments, 64);
}

}  // namespace
}  // namespace compact::analog
