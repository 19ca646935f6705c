#include <gtest/gtest.h>

#include "core/compose.hpp"
#include "xbar/evaluate.hpp"

namespace compact::core {
namespace {

/// A 2-row block computing a single literal from its input row.
xbar::crossbar literal_block(int variable, bool positive,
                             const std::string& name) {
  xbar::crossbar block(2, 1);
  block.set_input_row(1);
  block.add_output(0, name);
  block.set_on(1, 0);
  block.set_literal(0, 0, variable, positive);
  return block;
}

TEST(ComposeTest, DimensionsAddUpWithSharedInput) {
  const xbar::crossbar a = literal_block(0, true, "fa");
  const xbar::crossbar b = literal_block(1, false, "fb");
  const xbar::crossbar composed = compose_diagonal({&a, &b});
  // Each block contributes rows-1; one shared input row.
  EXPECT_EQ(composed.rows(), 1 + 1 + 1);
  EXPECT_EQ(composed.columns(), 2);
  EXPECT_EQ(composed.input_row(), composed.rows() - 1);
  ASSERT_EQ(composed.outputs().size(), 2u);
}

TEST(ComposeTest, BlocksStayFunctionallyIndependent) {
  const xbar::crossbar a = literal_block(0, true, "fa");
  const xbar::crossbar b = literal_block(1, false, "fb");
  const xbar::crossbar composed = compose_diagonal({&a, &b});
  for (int v = 0; v < 4; ++v) {
    const std::vector<bool> in{bool(v & 1), bool(v & 2)};
    EXPECT_EQ(xbar::evaluate_output(composed, in, "fa"), in[0]);
    EXPECT_EQ(xbar::evaluate_output(composed, in, "fb"), !in[1]);
  }
}

TEST(ComposeTest, ConstantOnlyBlocksContributeNoHardware) {
  xbar::crossbar consts(1, 0);
  consts.set_input_row(0);
  consts.add_constant_output(true, "one");
  const xbar::crossbar a = literal_block(0, true, "fa");
  const xbar::crossbar composed = compose_diagonal({&a, &consts});
  EXPECT_EQ(composed.rows(), 2);
  EXPECT_EQ(composed.columns(), 1);
  ASSERT_EQ(composed.constant_outputs().size(), 1u);
  EXPECT_TRUE(xbar::evaluate_output(composed, {false}, "one"));
}

TEST(ComposeTest, SingleBlockIsIsomorphic) {
  const xbar::crossbar a = literal_block(0, true, "fa");
  const xbar::crossbar composed = compose_diagonal({&a});
  EXPECT_EQ(composed.rows(), a.rows());
  EXPECT_EQ(composed.columns(), a.columns());
  for (int v = 0; v < 2; ++v)
    EXPECT_EQ(xbar::evaluate_output(composed, {bool(v)}, "fa"),
              xbar::evaluate_output(a, {bool(v)}, "fa"));
}

TEST(ComposeTest, ManyBlocksScaleLinearly) {
  std::vector<xbar::crossbar> blocks;
  std::vector<const xbar::crossbar*> pointers;
  for (int i = 0; i < 10; ++i)
    blocks.push_back(literal_block(
        i, i % 2 == 0, std::string("f").append(std::to_string(i))));
  for (const xbar::crossbar& b : blocks) pointers.push_back(&b);
  const xbar::crossbar composed = compose_diagonal(pointers);
  EXPECT_EQ(composed.rows(), 11);
  EXPECT_EQ(composed.columns(), 10);
  std::vector<bool> in(10);
  for (int i = 0; i < 10; ++i) in[static_cast<std::size_t>(i)] = i % 3 == 0;
  for (int i = 0; i < 10; ++i) {
    const bool expected = i % 2 == 0 ? in[static_cast<std::size_t>(i)]
                                     : !in[static_cast<std::size_t>(i)];
    EXPECT_EQ(
        xbar::evaluate_output(composed, in,
                              std::string("f").append(std::to_string(i))),
        expected);
  }
}

TEST(ComposeTest, RejectsBlockWithoutInputRow) {
  xbar::crossbar broken(2, 1);  // no input row set
  EXPECT_THROW((void)compose_diagonal({&broken}), error);
}

}  // namespace
}  // namespace compact::core
