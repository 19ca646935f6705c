// Robustness: parsers must reject malformed input with parse_error — never
// crash, hang or accept garbage silently.
#include <gtest/gtest.h>

#include "api/compact_api.hpp"
#include "frontend/blif.hpp"
#include "frontend/pla.hpp"
#include "frontend/verilog.hpp"
#include "util/rng.hpp"
#include "xbar/serialize.hpp"

#include <sstream>
#include <string>
#include <vector>

namespace compact {
namespace {

std::string random_text(rng& random, int length, bool structured) {
  static const char* fragments[] = {
      ".model", ".inputs", ".names", ".end",    "module", "endmodule",
      "assign", "input",   "output", "wire",    "and",    "nor",
      ".i",     ".o",      ".e",     "xbar",    "dim",    "d",
      "1",      "0",       "-",      "a",       "b",      "(",
      ")",      ";",       ",",      "=",       "&",      "|",
      "~",      "\n",      " ",      "11 1",    "1- 1",   "# x",
      "var",    "arrays",  "array",  "endarray", "connect", "row",
      "col",    "on",      "+1",     "end",
      // Numeric edge cases: headers like ".i abc" or ".i 99999999999999"
      // must surface as parse_error, never a raw std::stoi exception.
      "99999999999999", "-1", "0x10", "3.5", "abc",
  };
  std::string text;
  for (int i = 0; i < length; ++i) {
    if (structured) {
      text += fragments[random.next_below(std::size(fragments))];
      text += ' ';
    } else {
      text += static_cast<char>(32 + random.next_below(95));
    }
  }
  return text;
}

/// `Truncated` is what a parser throws for a cut document, `Flipped` for
/// one with bytes overwritten.
template <typename Truncated = api::parse_error, typename Flipped = Truncated,
          typename Parser>
void fuzz(Parser&& parse, std::uint64_t seed,
          const std::vector<std::string>& lines = {}) {
  rng random(seed);
  int accepted = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const bool structured = trial % 2 == 0;
    const std::string text =
        random_text(random, 5 + static_cast<int>(random.next_below(60)),
                    structured);
    try {
      (void)parse(text);
      ++accepted;  // structurally valid by luck — fine, must not crash
    } catch (const error&) {
      // expected for garbage
    } catch (const api::parse_error&) {
    }
  }
  // Random garbage overwhelmingly fails to parse.
  EXPECT_LT(accepted, 40);

  // Valid documents (wire lines, designs): every strict prefix is
  // incomplete and must be rejected; with bytes overwritten they must parse
  // or be rejected, never crash.
  for (const std::string& line : lines) {
    (void)parse(line);
    for (std::size_t cut = 0; cut < line.size(); ++cut)
      EXPECT_THROW((void)parse(line.substr(0, cut)), Truncated)
          << line.substr(0, cut);
    for (int trial = 0; trial < 200; ++trial) {
      std::string text = line;
      for (int flips = 1 + static_cast<int>(random.next_below(3)); flips > 0;
           --flips)
        text[random.next_below(text.size())] =
            static_cast<char>(random.next_below(256));
      try {
        (void)parse(text);
      } catch (const Flipped&) {
      }
    }
  }
}

/// Wire lines of the three operations, as a client sends them and as
/// the daemon answers.
std::vector<std::string> request_lines() {
  api::request_v1 synthesize;
  synthesize.id = "s1";
  synthesize.source.text =
      ".model m\n.inputs a b\n.outputs f\n.names a b f\n11 1\n.end\n";
  api::request_v1 lint = synthesize;
  lint.op = "lint";
  lint.lint.electrical = true;
  api::request_v1 evaluate;
  evaluate.op = "evaluate";
  evaluate.design_text = api::handle(synthesize).design_text;
  evaluate.assignment = "11";
  return {api::to_json(synthesize), api::to_json(lint), api::to_json(evaluate)};
}

std::vector<std::string> response_lines() {
  std::vector<std::string> lines;
  for (const std::string& request : request_lines())
    lines.push_back(api::to_json(api::handle(api::request_from_json(request))));
  return lines;
}

TEST(ParserFuzzTest, Blif) {
  fuzz([](const std::string& t) { return frontend::parse_blif(t); },
       101);
}

TEST(ParserFuzzTest, Pla) {
  fuzz([](const std::string& t) { return frontend::parse_pla_string(t); },
       202);
}

TEST(ParserFuzzTest, Verilog) {
  fuzz([](const std::string& t) { return frontend::parse_verilog_string(t); },
       303);
}

TEST(ParserFuzzTest, XbarDesigns) {
  fuzz(
      [](const std::string& t) {
        std::istringstream is(t);
        return xbar::read_design(is);
      },
      404);
}

/// Synthesized designs of both format versions, without the final newline,
/// so that every strict prefix lacks the end marker.
std::vector<std::string> design_documents() {
  api::request_v1 request;
  request.source.text =
      ".model m\n.inputs a b c\n.outputs f g\n.names a b c f\n11- 1\n"
      "1-1 1\n-11 1\n.names a c g\n10 1\n.end\n";
  request.synthesis.labeler = "oct";
  const std::string single = api::handle(request).design_text;
  request.synthesis.partition = true;
  request.synthesis.max_rows = 3;
  request.synthesis.max_columns = 3;
  const std::string split = api::handle(request).design_text;
  EXPECT_EQ(split.rfind("xbar 2\n", 0), 0u) << split;
  return {single.substr(0, single.size() - 1),
          split.substr(0, split.size() - 1)};
}

TEST(ParserFuzzTest, XbarPartitionedDesigns) {
  // A flipped digit may put a device off the grid: a range error of the
  // crossbar (compact::error), not a parse_error, but still structured.
  fuzz<parse_error, error>(
      [](const std::string& t) { return xbar::read_partitioned_design(t); },
      405, design_documents());
}

TEST(ParserFuzzTest, RequestJson) {
  fuzz([](const std::string& t) { return api::request_from_json(t); }, 505,
       request_lines());
}

TEST(ParserFuzzTest, ResponseJson) {
  fuzz([](const std::string& t) { return api::response_from_json(t); }, 606,
       response_lines());
}

// Regression: numeric header fields used to reach std::stoi unguarded, so
// non-numeric or out-of-int-range values crashed with std::invalid_argument
// or std::out_of_range instead of the parsers' parse_error contract.
TEST(ParserFuzzTest, MalformedNumericHeadersAreParseErrors) {
  for (const char* bad : {".i abc\n.o 1\n.e\n", ".i 99999999999999\n.o 1\n.e\n",
                          ".i 2\n.o -1\n.e\n", ".i 2\n.o 1x\n.e\n"})
    EXPECT_THROW((void)frontend::parse_pla_string(bad), parse_error) << bad;
  for (const char* bad :
       {"xbar 1\ndim abc 2\nend\n", "xbar 1\ndim 99999999999999 2\nend\n",
        "xbar 1\ndim 2 2\ninput 99999999999999\nend\n"}) {
    std::istringstream is(bad);
    EXPECT_THROW((void)xbar::read_design(is), parse_error) << bad;
  }
}

TEST(ParserFuzzTest, TruncatedValidInputsRejected) {
  const std::string valid_blif =
      ".model m\n.inputs a b\n.outputs f\n.names a b f\n11 1\n.end\n";
  // Every strict prefix that cuts into the structure must throw or parse to
  // something consistent — never crash.
  for (std::size_t cut = 1; cut < valid_blif.size(); ++cut) {
    try {
      (void)frontend::parse_blif(valid_blif.substr(0, cut));
    } catch (const error&) {
    }
  }
  SUCCEED();
}

}  // namespace
}  // namespace compact
