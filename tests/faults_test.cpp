#include <gtest/gtest.h>

#include "core/compact.hpp"
#include "frontend/benchgen.hpp"
#include "xbar/evaluate.hpp"
#include "xbar/faults.hpp"

namespace compact::xbar {
namespace {

/// f = x0 through one literal device: both junctions are critical.
crossbar single_path() {
  crossbar x(2, 1);
  x.set_input_row(1);
  x.add_output(0, "f");
  x.set_on(1, 0);
  x.set_literal(0, 0, 0, true);
  return x;
}

TEST(FaultsTest, StuckOffBreaksThePath) {
  const crossbar faulty =
      inject_faults(single_path(), {{0, 0, fault_kind::stuck_off}});
  EXPECT_FALSE(evaluate_output(faulty, {true}, "f"));  // was 1
}

TEST(FaultsTest, StuckOnForcesTheOutputHigh) {
  const crossbar faulty =
      inject_faults(single_path(), {{0, 0, fault_kind::stuck_on}});
  EXPECT_TRUE(evaluate_output(faulty, {false}, "f"));  // was 0
}

TEST(FaultsTest, OutOfRangeFaultRejected) {
  EXPECT_THROW(
      (void)inject_faults(single_path(), {{5, 0, fault_kind::stuck_on}}),
      error);
}

TEST(FaultsTest, ZeroFaultRateYieldsEverything) {
  yield_options options;
  options.fault_rate = 0.0;
  options.trials = 20;
  const yield_report report = estimate_yield(single_path(), 1, options);
  EXPECT_EQ(report.functional, report.trials);
  EXPECT_DOUBLE_EQ(report.yield, 1.0);
  EXPECT_DOUBLE_EQ(report.average_faults, 0.0);
}

TEST(FaultsTest, YieldDecreasesWithFaultRate) {
  const frontend::network net = frontend::make_comparator(2);
  core::synthesis_options options;
  options.labeler = "oct";
  const core::synthesis_result r = core::synthesize(net, options);

  yield_options low;
  low.fault_rate = 0.002;
  low.trials = 120;
  yield_options high = low;
  high.fault_rate = 0.08;
  const yield_report low_report =
      estimate_yield(r.design, net.input_count(), low);
  const yield_report high_report =
      estimate_yield(r.design, net.input_count(), high);
  EXPECT_GE(low_report.yield, high_report.yield);
  EXPECT_GT(high_report.average_faults, low_report.average_faults);
}

TEST(FaultsTest, CriticalFaultsOfSinglePathDesign) {
  const std::vector<fault> critical = critical_single_faults(single_path(), 1);
  // Both devices are critical in both polarities where applicable:
  // stuck-off on either breaks x0=1; stuck-on on the literal lifts x0=0.
  EXPECT_GE(critical.size(), 3u);
  for (const fault& f : critical) {
    EXPECT_GE(f.row, 0);
    EXPECT_LT(f.row, 2);
    EXPECT_EQ(f.column, 0);
  }
}

TEST(FaultsTest, UnusedJunctionsAreNotCritical) {
  // A 3x2 design using only column 0: column 1 faults at off junctions are
  // only critical when stuck-on creates a new path.
  crossbar x(3, 2);
  x.set_input_row(2);
  x.add_output(0, "f");
  x.set_on(2, 0);
  x.set_literal(0, 0, 0, true);
  const std::vector<fault> critical = critical_single_faults(x, 1);
  for (const fault& f : critical) {
    if (f.column == 1) {
      // Only stuck-on can matter on an unused column.
      EXPECT_EQ(f.kind, fault_kind::stuck_on);
    }
  }
}

TEST(FaultsTest, InjectionDoesNotMutateTheOriginal) {
  const crossbar original = single_path();
  (void)inject_faults(original, {{0, 0, fault_kind::stuck_off}});
  EXPECT_EQ(original.at(0, 0).kind, literal_kind::positive);
}

}  // namespace
}  // namespace compact::xbar
