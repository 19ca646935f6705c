#include <gtest/gtest.h>

#include <sstream>

#include "frontend/blif.hpp"

namespace compact::frontend {
namespace {

TEST(BlifTest, ParsesSimpleModel) {
  const network net = parse_blif(R"(
.model majority
.inputs a b c
.outputs f
.names a b c f
11- 1
1-1 1
-11 1
.end
)");
  EXPECT_EQ(net.name(), "majority");
  EXPECT_EQ(net.input_count(), 3);
  ASSERT_EQ(net.outputs().size(), 1u);
  for (int v = 0; v < 8; ++v) {
    const bool a = v & 1, b = v & 2, c = v & 4;
    const bool expected = (a && b) || (a && c) || (b && c);
    EXPECT_EQ(net.simulate({a, b, c})[0], expected) << v;
  }
}

TEST(BlifTest, OffSetCoverIsComplemented) {
  // f defined by its off-set: f = 0 iff a=1,b=1 -> f = NAND.
  const network net = parse_blif(R"(
.model nand
.inputs a b
.outputs f
.names a b f
11 0
.end
)");
  EXPECT_TRUE(net.simulate({false, false})[0]);
  EXPECT_TRUE(net.simulate({true, false})[0]);
  EXPECT_FALSE(net.simulate({true, true})[0]);
}

TEST(BlifTest, ConstantNodes) {
  const network net = parse_blif(R"(
.model consts
.inputs a
.outputs one zero
.names one
1
.names zero
.end
)");
  EXPECT_TRUE(net.simulate({false})[0]);
  EXPECT_FALSE(net.simulate({false})[1]);
}

TEST(BlifTest, GatesMayBeDeclaredOutOfOrder) {
  const network net = parse_blif(R"(
.model ooo
.inputs a b
.outputs f
.names t1 t2 f
11 1
.names a t1
0 1
.names b t2
0 1
.end
)");
  // f = !a AND !b
  EXPECT_TRUE(net.simulate({false, false})[0]);
  EXPECT_FALSE(net.simulate({true, false})[0]);
}

TEST(BlifTest, CommentsAndContinuations) {
  const network net = parse_blif(
      ".model c # trailing comment\n"
      ".inputs a \\\n b\n"
      ".outputs f\n"
      "# a whole comment line\n"
      ".names a b f\n"
      "11 1\n"
      ".end\n");
  EXPECT_EQ(net.input_count(), 2);
  EXPECT_TRUE(net.simulate({true, true})[0]);
}

TEST(BlifTest, RejectsLatchesAndCycles) {
  EXPECT_THROW((void)parse_blif(".model m\n.inputs a\n.outputs q\n"
                                ".latch a q 0\n.end\n"),
               parse_error);
  EXPECT_THROW((void)parse_blif(R"(
.model cyc
.inputs a
.outputs f
.names g f
1 1
.names f g
1 1
.end
)"),
               parse_error);
}

TEST(BlifTest, RejectsMalformedCovers) {
  EXPECT_THROW((void)parse_blif(".model m\n.inputs a\n.outputs f\n"
                                ".names a f\n111 1\n.end\n"),
               parse_error);  // cube width
  EXPECT_THROW((void)parse_blif(".model m\n.inputs a\n.outputs f\n"
                                ".names a f\n1 1\n0 0\n.end\n"),
               parse_error);  // mixed polarity
  EXPECT_THROW((void)parse_blif(".model m\n.inputs a\n.outputs f\n"
                                "1 1\n.end\n"),
               parse_error);  // row outside .names
}

TEST(BlifTest, UndefinedSignalsAreErrors) {
  EXPECT_THROW((void)parse_blif(".model m\n.inputs a\n.outputs f\n"
                                ".names a ghost f\n11 1\n.end\n"),
               parse_error);
  EXPECT_THROW((void)parse_blif(".model m\n.inputs a\n.outputs nope\n"
                                ".end\n"),
               parse_error);
}

TEST(BlifTest, RoundTripPreservesSemantics) {
  const std::string source = R"(
.model rt
.inputs a b c
.outputs f g
.names a b t
10 1
01 1
.names t c f
11 1
.names a c g
00 1
11 1
.end
)";
  const network original = parse_blif(source);
  std::ostringstream os;
  write_blif(original, os);
  const network reparsed = parse_blif(os.str());
  ASSERT_EQ(reparsed.input_count(), original.input_count());
  ASSERT_EQ(reparsed.outputs().size(), original.outputs().size());
  for (int v = 0; v < 8; ++v) {
    const std::vector<bool> in{bool(v & 1), bool(v & 2), bool(v & 4)};
    EXPECT_EQ(original.simulate(in), reparsed.simulate(in)) << v;
  }
}

TEST(BlifTest, OutputAliasGetsBuffer) {
  network net("alias");
  const int a = net.add_input("a");
  net.set_output(a, "renamed");
  std::ostringstream os;
  write_blif(net, os);
  const network reparsed = parse_blif(os.str());
  EXPECT_EQ(reparsed.outputs()[0].name, "renamed");
  EXPECT_TRUE(reparsed.simulate({true})[0]);
  EXPECT_FALSE(reparsed.simulate({false})[0]);
}

}  // namespace
}  // namespace compact::frontend
