#include <gtest/gtest.h>

#include "bdd/manager.hpp"
#include "xbar/equivalence.hpp"
#include "xbar/evaluate.hpp"

namespace compact::xbar {
namespace {

/// The paper's running example (Fig. 2): f = (a AND b) OR c, hand-mapped.
/// Rows: 0 = output (root a-node), 1 = internal b-node, 2 = input (1-term).
/// Columns: 0 = bridge for node a... here we hand-build a small design:
///   row0 -- a --> col0 ; col0 -- b --> row1? Instead, use a direct layout:
/// Layout used:
///   row2 (input) --1--> col1 (so col1 is source side)
///   device(row0, col1) = c      : input -> c -> output
///   device(row1, col1) = b      : input -> b -> row1
///   device(row1, col0) = on     : row1 bridged to col0
///   device(row0, col0) = a      : col0 -> a -> output
/// Then output conducts iff c OR (b AND a).
crossbar example_design() {
  crossbar x(3, 2);
  x.set_input_row(2);
  x.add_output(0, "f");
  x.set_on(2, 1);
  x.set_literal(0, 1, 2, true);   // c
  x.set_literal(1, 1, 1, true);   // b
  x.set_on(1, 0);
  x.set_literal(0, 0, 0, true);   // a
  return x;
}

TEST(EvaluateTest, PaperExampleTruthTable) {
  const crossbar x = example_design();
  for (int v = 0; v < 8; ++v) {
    const bool a = v & 1, b = v & 2, c = v & 4;
    const bool expected = (a && b) || c;
    EXPECT_EQ(evaluate_output(x, {a, b, c}, "f"), expected) << v;
  }
}

TEST(EvaluateTest, PaperExampleInstance) {
  // Figure 2(d): a=1, b=1, c=0 -> true.
  EXPECT_TRUE(evaluate_output(example_design(), {true, true, false}, "f"));
  // a=1, b=0, c=0 -> false.
  EXPECT_FALSE(evaluate_output(example_design(), {true, false, false}, "f"));
}

TEST(EvaluateTest, ReachableRowsIncludesInput) {
  const crossbar x = example_design();
  const std::vector<bool> rows = reachable_rows(x, {false, false, false});
  EXPECT_TRUE(rows[2]);   // input row always reachable
  EXPECT_FALSE(rows[0]);  // f = 0 here
}

TEST(EvaluateTest, AllOffCrossbarReachesNothing) {
  crossbar x(3, 3);
  x.set_input_row(0);
  x.add_output(2, "f");
  EXPECT_FALSE(evaluate(x, {false})[0]);
}

TEST(EvaluateTest, ConstantOutputsAppended) {
  crossbar x(2, 1);
  x.set_input_row(1);
  x.add_output(0, "f");
  x.add_constant_output(true, "t");
  x.add_constant_output(false, "z");
  const std::vector<bool> out = evaluate(x, {});
  ASSERT_EQ(out.size(), 3u);
  EXPECT_TRUE(out[1]);
  EXPECT_FALSE(out[2]);
  EXPECT_TRUE(evaluate_output(x, {}, "t"));
}

TEST(EvaluateTest, MissingInputRowThrows) {
  crossbar x(2, 2);
  EXPECT_THROW((void)evaluate(x, {}), error);
}

TEST(EvaluateTest, UnknownOutputThrows) {
  crossbar x = example_design();
  EXPECT_THROW((void)evaluate_output(x, {false, false, false}, "nope"),
               error);
}

TEST(ValidateTest, AcceptsCorrectDesign) {
  bdd::manager m(3);
  const bdd::node_handle f =
      m.apply_or(m.apply_and(m.var(0), m.var(1)), m.var(2));
  const equivalence_report report =
      validate(example_design(), m, {f}, {"f"}, 3);
  EXPECT_TRUE(report.equivalent);
  EXPECT_EQ(verdict_text(report).rfind("PASS (symbolic, ", 0), 0u)
      << verdict_text(report);
}

TEST(ValidateTest, RejectsWrongDesign) {
  bdd::manager m(3);
  const bdd::node_handle wrong = m.apply_and(m.var(0), m.var(2));
  const equivalence_report report =
      validate(example_design(), m, {wrong}, {"f"}, 3);
  EXPECT_FALSE(report.equivalent);
  ASSERT_EQ(report.outputs.size(), 1u);
  const std::vector<bool>& witness = report.outputs[0].counterexample;
  ASSERT_EQ(witness.size(), 3u);
  EXPECT_NE(evaluate_output(example_design(), witness, "f"),
            m.evaluate(wrong, witness));
  EXPECT_NE(verdict_text(report).find(
                "\noutput 'f' differs from its specification under "
                "assignment "),
            std::string::npos)
      << verdict_text(report);
}

TEST(ValidateTest, RejectsMissingOutputName) {
  bdd::manager m(3);
  const bdd::node_handle f = m.var(0);
  const equivalence_report report =
      validate(example_design(), m, {f}, {"ghost"}, 3);
  EXPECT_FALSE(report.equivalent);
  EXPECT_NE(verdict_text(report).find("output 'ghost' is missing"),
            std::string::npos);
}

TEST(ValidateTest, RefusesDevicesBeyondTheInputs) {
  // Evaluation would refuse such a design; so does validation, rather than
  // report a counterexample that evaluate cannot replay.
  bdd::manager m(20);
  crossbar x(2, 1);
  x.set_input_row(1);
  x.add_output(0, "f");
  x.set_literal(0, 0, 25, true);
  EXPECT_THROW((void)validate(x, m, {m.var(0)}, {"f"}, 20), error);
}

TEST(ValidateTest, ChecksEveryBindingOfAName) {
  // f = a AND b on row 0.
  bdd::manager m(2);
  const bdd::node_handle f = m.apply_and(m.var(0), m.var(1));
  crossbar x(2, 1);
  x.set_input_row(1);
  x.add_output(0, "f");
  x.set_literal(0, 0, 1, true);
  x.set_literal(1, 0, 0, true);

  crossbar same_row = x;  // .outputs f f: both ports sense one row
  same_row.add_output(0, "f");
  EXPECT_TRUE(validate(same_row, m, {f, f}, {"f", "f"}, 2).equivalent);

  crossbar input_row = x;  // the second 'f' senses the always-on input row
  input_row.add_output(1, "f");
  const equivalence_report report = validate(input_row, m, {f}, {"f"}, 2);
  EXPECT_FALSE(report.equivalent);
  ASSERT_EQ(report.outputs.size(), 1u);
  EXPECT_TRUE(report.outputs[0].found);
  EXPECT_FALSE(report.outputs[0].counterexample.empty());

  crossbar constant = x;  // a constant of the same name disagrees too
  constant.add_constant_output(false, "f");
  EXPECT_FALSE(validate(constant, m, {f}, {"f"}, 2).equivalent);
}

}  // namespace
}  // namespace compact::xbar
