#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/telemetry.hpp"

namespace compact {
namespace {

TEST(ErrorTest, CheckThrowsWithMessage) {
  EXPECT_NO_THROW(check(true, "fine"));
  try {
    check(false, "boom");
    FAIL() << "check(false) must throw";
  } catch (const error& e) {
    EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
  }
}

TEST(ErrorTest, HierarchyIsCatchable) {
  EXPECT_THROW(throw parse_error("p"), error);
  EXPECT_THROW(throw infeasible_error("i"), error);
  EXPECT_THROW(throw error("e"), std::runtime_error);
}

TEST(StopwatchTest, MeasuresNonNegativeMonotoneTime) {
  stopwatch w;
  const double t1 = w.seconds();
  EXPECT_GE(t1, 0.0);
  const double t2 = w.seconds();
  EXPECT_GE(t2, t1);
  w.reset();
  EXPECT_LT(w.seconds(), 1.0);
  EXPECT_GE(w.milliseconds(), 0.0);
}

TEST(RngTest, Deterministic) {
  rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowRespectsBound) {
  rng r(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.next_below(13), 13u);
}

TEST(RngTest, NextBelowHitsAllResidues) {
  rng r(9);
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 5000; ++i) ++counts[r.next_below(5)];
  for (int c : counts) EXPECT_GT(c, 500);  // roughly uniform
}

TEST(RngTest, DoubleInUnitInterval) {
  rng r(3);
  for (int i = 0; i < 1000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(trim("  hello  "), "hello");
  EXPECT_EQ(trim("\t\r\n x \n"), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("abc"), "abc");
}

TEST(StringsTest, SplitWhitespace) {
  EXPECT_EQ(split_ws("a  b\tc"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(split_ws("   ").empty());
  EXPECT_EQ(split_ws("one"), (std::vector<std::string>{"one"}));
}

TEST(StringsTest, SplitDelimiterKeepsEmptyFields) {
  EXPECT_EQ(split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(starts_with(".names a b", ".names"));
  EXPECT_FALSE(starts_with(".name", ".names"));
}

TEST(StringsTest, FormatFixed) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(1.0, 0), "1");
}

TEST(TableTest, AlignedOutputContainsAllCells) {
  table t({"name", "rows"});
  t.add_row({"dec", "64"});
  t.add_row({"arbiter", "1000"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("arbiter"), std::string::npos);
  EXPECT_NE(s.find("1000"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TableTest, RowWidthMismatchThrows) {
  table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), error);
}

TEST(TableTest, CsvQuotesCommas) {
  table t({"name"});
  t.add_row({"a,b"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_NE(os.str().find("\"a,b\""), std::string::npos);
}

TEST(TableTest, CellFormatters) {
  EXPECT_EQ(cell(42), "42");
  EXPECT_EQ(cell(std::size_t{7}), "7");
  EXPECT_EQ(cell(2.5, 1), "2.5");
}

TEST(JsonEscapeTest, EscapesQuotesBackslashesAndControlCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(json_escape("tab\there"), "tab\\there");
  EXPECT_EQ(json_escape("cr\rlf"), "cr\\rlf");
  // Other control characters take the \u00XX form.
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(json_escape(std::string(1, '\x1f')), "\\u001f");
  EXPECT_EQ(json_escape(""), "");
  // DEL and multi-byte UTF-8 pass through; appends keep what is there.
  std::string out = "x";
  json::append_escaped(out, "\x7f\xc3\xa9\"");
  EXPECT_EQ(out, "x\x7f\xc3\xa9\\\"");
}

TEST(JsonNumberTest, IntegralValuesPrintWithoutFraction) {
  EXPECT_EQ(json_number(0.0), "0");
  EXPECT_EQ(json_number(7.0), "7");
  EXPECT_EQ(json_number(-3.0), "-3");
  EXPECT_EQ(json_number(2.5), "2.5");
  // Integral below 1e15 prints as an integer; everything else as %.9g.
  EXPECT_EQ(json_number(1e15 - 1), "999999999999999");
  EXPECT_EQ(json_number(1e15), "1e+15");
  EXPECT_EQ(json_number(-0.0), "0");
  EXPECT_EQ(json_number(1e-7), "1e-07");
  EXPECT_EQ(json_number(123456789.123), "123456789");
}

TEST(JsonNumberTest, NonFiniteValuesRenderAsNull) {
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()), "null");
}

// --- json::reader and json::parse --------------------------------------------

TEST(JsonReaderTest, ReadsEveryKindWithWhitespaceAroundTokens) {
  const std::string text =
      " { \"s\" : \"a\\\"b\\\\c\\u00e9\\n\" , \"n\" : -1.5e2 ,\n"
      "\"t\":true,\"f\" :false , \"z\": null ,\"a\" : [ 1 , [ ] , { } ] ,"
      " \"k\\u0065y\" : { \"x\" : [ \"y\" ] } } ";
  json::reader in(text);
  std::vector<std::string> keys;
  in.object([&](std::string_view key) {
    keys.emplace_back(key);
    if (key == "s")
      EXPECT_EQ(in.string(), "a\"b\\c\xc3\xa9\n");
    else if (key == "n")
      EXPECT_EQ(in.number(), -150.0);
    else if (key == "t")
      EXPECT_TRUE(in.boolean());
    else if (key == "f")
      EXPECT_FALSE(in.boolean());
    else if (key == "z")
      in.null();
    else
      in.skip();
  });
  in.end();
  EXPECT_EQ(keys,
            (std::vector<std::string>{"s", "n", "t", "f", "z", "a", "key"}));
}

TEST(JsonReaderTest, NumbersReadAsStrtodReadsTheirToken) {
  const auto bits = [](double v) {
    std::uint64_t b = 0;
    std::memcpy(&b, &v, sizeof b);
    return b;
  };
  const auto expect_strtod = [&](const std::string& token) {
    json::reader in(token);
    const double got = in.number();
    in.end();
    EXPECT_EQ(bits(got), bits(std::strtod(token.c_str(), nullptr))) << token;
  };
  for (const char* token :
       {"0", "-0", "+5", ".5", "1.", "0.1", "1e-7", "123456789.123",
        "9007199254740993", "1e22", "1e23", "4.35", "-2.5E+3", "1e-400",
        "00012", "0.000000000000000000000001"})
    expect_strtod(token);
  // Random decimals, inside and outside the range read without strtod.
  rng random(99);
  for (int i = 0; i < 20000; ++i) {
    std::string token = random.next_bool() ? "-" : "";
    token += std::to_string(random.next_below(100000000));
    if (random.next_bool()) {
      token += '.';
      token += std::to_string(random.next_below(1000000000));
    }
    if (random.next_bool()) {
      token += 'e';
      token += std::to_string(static_cast<int>(random.next_below(61)) - 30);
    }
    expect_strtod(token);
  }
  for (const char* bad :
       {"-", "1e999", "-1e999", "1-2", "e5", "--1", "1e", ".", "+"}) {
    json::reader in(bad);
    EXPECT_THROW((void)in.number(), parse_error) << bad;
  }
}

TEST(JsonReaderTest, ErrorsNameWhatAndTheOffset) {
  const auto message = [](const std::string& text) {
    try {
      (void)json::parse(text);
    } catch (const parse_error& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  EXPECT_EQ(message("{\"a\":tru}"), "json: invalid literal at offset 5");
  EXPECT_EQ(message("\"abc"), "json: unexpected end of input at offset 4");
  EXPECT_EQ(message("1 2"),
            "json: trailing characters after document at offset 2");
  EXPECT_EQ(message("[1,]"), "json: expected a value at offset 3");
  EXPECT_EQ(message("\"\\x\""), "json: invalid escape at offset 3");
  json::reader in("{\"a\":1}");
  EXPECT_THROW((void)in.string(), parse_error);
}

TEST(JsonParseTest, BuildsTheTreeAndTheLastCopyOfAKeyWins) {
  const json::value_ptr doc =
      json::parse(R"({"a":1,"b":[true,null,"x"],"a":{"c":2.5}})");
  ASSERT_EQ(doc->as_object().size(), 2U);
  EXPECT_DOUBLE_EQ(doc->at("a").at("c").as_number(), 2.5);
  const std::vector<json::value_ptr>& b = doc->at("b").as_array();
  ASSERT_EQ(b.size(), 3U);
  EXPECT_TRUE(b[0]->as_bool());
  EXPECT_TRUE(b[1]->is_null());
  EXPECT_EQ(b[2]->as_string(), "x");
}

}  // namespace
}  // namespace compact
