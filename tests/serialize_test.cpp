#include <gtest/gtest.h>

#include <sstream>

#include "core/compact.hpp"
#include "frontend/benchgen.hpp"
#include "xbar/evaluate.hpp"
#include "xbar/partitioned.hpp"
#include "xbar/serialize.hpp"

namespace compact::xbar {
namespace {

crossbar sample_design() {
  crossbar x(3, 2);
  x.set_input_row(2);
  x.add_output(0, "f");
  x.add_constant_output(true, "one");
  x.set_on(2, 1);
  x.set_literal(0, 1, 2, true);
  x.set_literal(1, 1, 1, false);
  x.set_on(1, 0);
  x.set_literal(0, 0, 0, true);
  return x;
}

TEST(SerializeTest, RoundTripPreservesEverything) {
  const crossbar original = sample_design();
  std::ostringstream os;
  write_design(original, os, {"a", "b", "c"});
  std::istringstream is(os.str());
  const loaded_design loaded = read_design(is);

  EXPECT_EQ(loaded.design.rows(), original.rows());
  EXPECT_EQ(loaded.design.columns(), original.columns());
  EXPECT_EQ(loaded.design.input_row(), original.input_row());
  ASSERT_EQ(loaded.design.outputs().size(), 1u);
  EXPECT_EQ(loaded.design.outputs()[0].name, "f");
  ASSERT_EQ(loaded.design.constant_outputs().size(), 1u);
  EXPECT_EQ(loaded.variable_names,
            (std::vector<std::string>{"a", "b", "c"}));
  for (int r = 0; r < original.rows(); ++r)
    for (int c = 0; c < original.columns(); ++c) {
      EXPECT_EQ(loaded.design.at(r, c).kind, original.at(r, c).kind);
      EXPECT_EQ(loaded.design.at(r, c).variable, original.at(r, c).variable);
    }
}

TEST(SerializeTest, RoundTrippedDesignEvaluatesIdentically) {
  const crossbar original = sample_design();
  std::ostringstream os;
  write_design(original, os);
  std::istringstream is(os.str());
  const loaded_design loaded = read_design(is);
  for (int v = 0; v < 8; ++v) {
    const std::vector<bool> a{bool(v & 1), bool(v & 2), bool(v & 4)};
    EXPECT_EQ(evaluate(loaded.design, a), evaluate(original, a)) << v;
  }
}

TEST(SerializeTest, SynthesizedDesignRoundTrips) {
  const frontend::network net = frontend::make_comparator(3);
  core::synthesis_options options;
  options.labeler = "oct";
  const core::synthesis_result r = core::synthesize(net, options);
  std::ostringstream os;
  write_design(r.design, os);
  std::istringstream is(os.str());
  const loaded_design loaded = read_design(is);
  for (int v = 0; v < 64; ++v) {
    std::vector<bool> a(6);
    for (int i = 0; i < 6; ++i) a[static_cast<std::size_t>(i)] = (v >> i) & 1;
    EXPECT_EQ(evaluate(loaded.design, a), evaluate(r.design, a)) << v;
  }
}

TEST(SerializeTest, CommentsAndBlankLinesIgnored) {
  std::istringstream is(
      "# a comment\nxbar 1\n\ndim 2 1\ninput 1\noutput 0 f\n"
      "d 1 0 on # bridge\nd 0 0 +0\nend\n");
  const loaded_design loaded = read_design(is);
  EXPECT_EQ(loaded.design.rows(), 2);
  EXPECT_TRUE(evaluate_output(loaded.design, {true}, "f"));
  EXPECT_FALSE(evaluate_output(loaded.design, {false}, "f"));
}

TEST(SerializeTest, DotExportShowsWiresAndDevices) {
  const crossbar x = sample_design();
  std::ostringstream os;
  write_design_dot(x, os, {"a", "b", "c"});
  const std::string s = os.str();
  EXPECT_NE(s.find("graph crossbar"), std::string::npos);
  EXPECT_NE(s.find("WL2"), std::string::npos);   // input row exists
  EXPECT_NE(s.find("BL1"), std::string::npos);
  EXPECT_NE(s.find("\"c\""), std::string::npos);   // named literal
  EXPECT_NE(s.find("\"!b\""), std::string::npos);  // negative literal
  EXPECT_NE(s.find("lightblue"), std::string::npos);   // input highlight
  EXPECT_NE(s.find("palegreen"), std::string::npos);   // output highlight
  // Exactly one edge per programmed junction (5 in the sample design).
  std::size_t edges = 0, at = 0;
  while ((at = s.find(" -- ", at)) != std::string::npos) {
    ++edges;
    at += 4;
  }
  EXPECT_EQ(edges, 5u);
}

TEST(SerializeTest, MalformedInputsRejected) {
  auto parse = [](const std::string& text) {
    std::istringstream is(text);
    return read_design(is);
  };
  EXPECT_THROW((void)parse(""), parse_error);
  EXPECT_THROW((void)parse("xbar 2\ndim 1 1\nend\n"), parse_error);
  EXPECT_THROW((void)parse("xbar 1\nend\n"), parse_error);
  EXPECT_THROW((void)parse("xbar 1\ndim 2 2\nd 0 0 ??\nend\n"), parse_error);
  EXPECT_THROW((void)parse("xbar 1\ndim 2 2\nbogus\nend\n"), parse_error);
  EXPECT_THROW((void)parse("xbar 1\ndim 2 2\nd 0 0 on\n"), parse_error);
  EXPECT_THROW((void)parse("xbar 1\ndim 2 2\nd 9 0 on\nend\n"), error);
  EXPECT_THROW((void)parse("xbar 1\ndim 2 2\nd x 0 on\nend\n"), parse_error);
}

// A number is a whole token: an optional '-' then decimal digits, within
// int. A prefix that std::stoi would have read is no longer enough.
TEST(SerializeTest, NumbersAreWholeTokens) {
  for (const char* bad :
       {"xbar 1\ndim 1 1\ninput 0\nd 0 0 +3x\nend\n",
        "xbar 1\ndim 9 9\ninput 0\nd 8 7t +2\nend\n",
        "xbar 1\ndim 1e1 9\nend\n", "xbar 1\ndim 1 1\nd 0 0 -+1\nend\n",
        "xbar 1\ndim +1 1\nend\n", "xbar 1\ndim 2147483648 1\nend\n",
        "xbar 1\ndim 1 1\ninput \r0\nend\n"}) {
    try {
      (void)read_design(std::string_view(bad));
      ADD_FAILURE() << "accepted: " << bad;
    } catch (const parse_error& e) {
      EXPECT_NE(std::string(e.what()).find("malformed number"),
                std::string::npos)
          << e.what();
    }
  }
  const loaded_design ok =
      read_design("xbar 1\ndim 02 1\ninput -0\nd 1 0 -007\nend\n");
  EXPECT_EQ(ok.design.rows(), 2);
  EXPECT_EQ(ok.design.input_row(), 0);
  EXPECT_EQ(ok.design.at(1, 0).variable, 7);
  EXPECT_EQ(ok.design.max_variable(), 7);
}

// A negative var index is malformed input, in both format versions; an
// index past the design's variables stays a range error of the crossbar.
TEST(SerializeTest, NegativeVariableIndexIsParseError) {
  EXPECT_THROW((void)read_partitioned_design(
                   "xbar 1\ndim 1 1\nvar -1 x\ninput 0\noutput 0 y\nend\n"),
               parse_error);
  EXPECT_THROW((void)read_partitioned_design(
                   "xbar 2\narrays 1\nvar -3 x\narray 0\ndim 1 1\n"
                   "input 0\nendarray\nend\n"),
               parse_error);
  try {
    (void)read_design("xbar 1\ndim 1 1\nd 0 0 +-3\nend\n");
    ADD_FAILURE() << "accepted a negative device variable";
  } catch (const parse_error&) {
    ADD_FAILURE() << "a device variable out of range is not a parse error";
  } catch (const error&) {
  }
}

// Evaluation checks the assignment once: a device reading beyond it is an
// error naming the variable, never a read past the assignment.
TEST(SerializeTest, EvaluationRejectsShortAssignments) {
  const loaded_partitioned_design loaded = read_partitioned_design(
      "xbar 1\ndim 1 1\ninput 0\noutput 0 y\nd 0 0 +1000000000\nend\n");
  try {
    (void)evaluate(loaded.design, {true});
    ADD_FAILURE() << "evaluated past the assignment";
  } catch (const error& e) {
    EXPECT_NE(std::string(e.what()).find("variable 1000000000"),
              std::string::npos)
        << e.what();
  }
  const loaded_design single =
      read_design("xbar 1\ndim 1 1\ninput 0\noutput 0 y\nd 0 0 +5\nend\n");
  EXPECT_THROW((void)evaluate(single.design, {}), error);
  EXPECT_EQ(evaluate(single.design, std::vector<bool>(6, true)),
            std::vector<bool>{true});
}

}  // namespace
}  // namespace compact::xbar
