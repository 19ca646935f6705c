// The JSON-lines wire codec (api/serde over util/json): pinned bytes,
// seeded round trips, the repeated-key rules, and a differential check of
// the pull readers against the document-tree readers they replaced.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "api/compact_api.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace {

namespace api = compact::api;
namespace json = compact::json;
using compact::rng;

// --- golden bytes ------------------------------------------------------------

// Every field set; strings carry quotes, backslashes, control characters and
// multi-byte UTF-8; doubles include 0.1, 1e-7, 123456789.123 (which %.9g
// rounds), 1e15 - 1, -0.0 and NaN (written as null).
api::request_v1 golden_request() {
  api::request_v1 r;
  r.id = "q\"uote\\back\x01\x1f\t\n\r/\xc3\xa9\xe2\x86\x92\xf0\x9f\x98\x80";
  r.op = "lint";
  r.api_version = 6;
  r.source.path = "dir/with \"quotes\".blif";
  r.source.text =
      ".model m\n.inputs a b\n.outputs f\n.names a b f\n11 1\n.end\n";
  r.source.format = "blif";
  r.design_text = "xbar 1\ndim 2 2\n\x7f end\\";
  r.assignment = "0110";
  r.deadline_seconds = 1e15 - 1;
  r.fail_on = "error";
  r.synthesis.labeler = "oct";
  r.synthesis.gamma = 0.1;
  r.synthesis.alignment = false;
  r.synthesis.time_limit_seconds = 1e-7;
  r.synthesis.threads = 3;
  r.synthesis.max_rows = 24;
  r.synthesis.max_columns = -1;
  r.synthesis.partition = true;
  r.synthesis.separate_robdds = true;
  r.synthesis.minimize_network = true;
  r.synthesis.variable_order = "sift";
  r.synthesis.kernelize = false;
  r.synthesis.validate = true;
  r.synthesis.verify = true;
  r.synthesis.trace_json_path = "/tmp/trace \xc3\xbc.jsonl";
  r.synthesis.memory_limit_bytes = 987654321012345ULL;
  r.synthesis.deadline_seconds = 123456789.123;
  r.synthesis.flight_record_path = "flight.json";
  r.lint.labeler = "staircase";
  r.lint.gamma = -0.0;
  r.lint.time_limit_seconds = std::numeric_limits<double>::quiet_NaN();
  r.lint.threads = 2;
  r.lint.equivalence = false;
  r.lint.electrical = true;
  r.lint.margin_threshold = 2.5;
  r.lint.criticality = true;
  r.lint.criticality_limit = 512;
  return r;
}

api::response_v1 golden_response() {
  api::response_v1 r;
  r.id = "resp\"\\\x02\xe2\x9c\x93";
  r.ok = false;
  r.code = api::error_code_v1::deadline_exceeded;
  r.error_message = "line one\nline two\ttabbed";
  r.design_text = "xbar 1\ndim 3 4\nd 0 0 x1\n";
  r.has_stats = true;
  r.stats.graph_nodes = 123456789012345ULL;
  r.stats.vh_count = 7;
  r.stats.rows = 11;
  r.stats.columns = 13;
  r.stats.semiperimeter = 24;
  r.stats.max_dimension = 13;
  r.stats.area = 143;
  r.stats.power_proxy = 19;
  r.stats.delay_steps = 12;
  r.stats.optimal = true;
  r.stats.relative_gap = 0.1;
  r.stats.synthesis_seconds = 1e-7;
  r.stats.arrays = 2;
  r.stats.cut_edges = 5;
  r.stats.bridge_connections = 3;
  r.stats.total_semiperimeter = 40;
  r.validation = {true, true, "exhaustive: 8 of 8"};
  r.verification = {true, false, "1 error \"quoted\""};
  r.diagnostics = {
      {"XBR003", "error", "dead row\x03", "remove it", {"r1", "c\\2"}},
      {"ELC001", "warning", "margin", "", {}}};
  r.lint_ran = true;
  r.lint_clean = false;
  r.lint_errors = 1;
  r.lint_warnings = 999999999999999ULL;
  r.lint_notes = 0;
  r.electrical_ran = true;
  r.electrically_safe = false;
  r.min_margin_ratio = 123456789.123;
  r.criticality_ran = true;
  r.junctions_analyzed = 64;
  r.critical_junctions = 9;
  r.criticality_truncated = true;
  r.outputs = "101";
  r.output_names = {"f", "g\"", "h\xc3\xa9"};
  r.service_seconds = -0.0;
  r.queue_seconds = std::numeric_limits<double>::quiet_NaN();
  return r;
}

// The lines the document-tree codec wrote for the two values above.
constexpr const char* kGoldenRequest =
    "{\"id\":\"q\\\"uote\\\\back\\u0001\\u001f\\t\\n\\r/\xc3\xa9\xe2\x86\x92"
    "\xf0\x9f\x98\x80\",\"op\":\"lint\",\"api_version\":6,"
    "\"source\":{\"path\":\"dir/with \\\"quotes\\\".blif\","
    "\"text\":\".model m\\n.inputs a b\\n.outputs f\\n.names a b f\\n11 1"
    "\\n.end\\n\",\"format\":\"blif\"},\"design\":\"xbar 1\\ndim 2 2\\n\x7f"
    " end\\\\\",\"assignment\":\"0110\",\"deadline_seconds\":999999999999"
    "999,\"fail_on\":\"error\",\"synthesis\":{\"labeler\":\"oct\","
    "\"gamma\":0.1,\"alignment\":false,\"time_limit_seconds\":1e-07,"
    "\"threads\":3,\"max_rows\":24,\"max_columns\":-1,"
    "\"partition\":true,\"separate_robdds\":true,"
    "\"minimize_network\":true,\"variable_order\":\"sift\","
    "\"kernelize\":false,\"validate\":true,\"verify\":true,"
    "\"trace_json_path\":\"/tmp/trace \xc3\xbc.jsonl\","
    "\"memory_limit_bytes\":987654321012345,\"deadline_seconds\":12345678"
    "9,\"flight_record_path\":\"flight.json\"},"
    "\"lint\":{\"labeler\":\"staircase\",\"gamma\":0,"
    "\"time_limit_seconds\":null,\"threads\":2,"
    "\"equivalence\":false,\"electrical\":true,"
    "\"margin_threshold\":2.5,\"criticality\":true,"
    "\"criticality_limit\":512}}";

constexpr const char* kGoldenResponse =
    "{\"id\":\"resp\\\"\\\\\\u0002\xe2\x9c\x93\","
    "\"ok\":false,\"code\":\"deadline_exceeded\","
    "\"error\":\"line one\\nline two\\ttabbed\","
    "\"design\":\"xbar 1\\ndim 3 4\\nd 0 0 x1\\n\","
    "\"stats\":{\"graph_nodes\":123456789012345,"
    "\"vh_count\":7,\"rows\":11,\"columns\":13,"
    "\"semiperimeter\":24,\"max_dimension\":13,"
    "\"area\":143,\"power_proxy\":19,\"delay_steps\":12,"
    "\"optimal\":true,\"relative_gap\":0.1,\"synthesis_seconds\":1e-07,"
    "\"arrays\":2,\"cut_edges\":5,\"bridge_connections\":3,"
    "\"total_semiperimeter\":40},\"validation\":{\"ran\":true,"
    "\"passed\":true,\"detail\":\"exhaustive: 8 of 8\"},"
    "\"verification\":{\"ran\":true,\"passed\":false,"
    "\"detail\":\"1 error \\\"quoted\\\"\"},\"diagnostics\":[{\"check\":\""
    "XBR003\",\"severity\":\"error\",\"message\":\"dead row\\u0003\","
    "\"fix\":\"remove it\",\"anchors\":[\"r1\","
    "\"c\\\\2\"]},{\"check\":\"ELC001\",\"severity\":\"warning\","
    "\"message\":\"margin\"}],\"lint\":{\"clean\":false,"
    "\"errors\":1,\"warnings\":999999999999999,"
    "\"notes\":0,\"electrical\":{\"safe\":false,"
    "\"min_margin_ratio\":123456789},\"criticality\":{\"junctions_analyze"
    "d\":64,\"critical_junctions\":9,\"truncated\":true}},"
    "\"outputs\":\"101\",\"output_names\":[\"f\","
    "\"g\\\"\",\"h\xc3\xa9\"],\"service_seconds\":0,"
    "\"queue_seconds\":null}";

TEST(WireCodecTest, GoldenLinesAreByteStable) {
  EXPECT_EQ(api::to_json(golden_request()), kGoldenRequest);
  EXPECT_EQ(api::to_json(golden_response()), kGoldenResponse);
}

// --- field-by-field comparison -----------------------------------------------

/// Every field of a value, doubles by bit pattern, so that two dumps are
/// equal exactly when every field is.
class dump {
 public:
  dump& operator()(const char* name, const std::string& v) {
    out_ += name;
    out_ += '[' + std::to_string(v.size()) + "]=" + v + '\n';
    return *this;
  }
  dump& operator()(const char* name, double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return (*this)(name, "f" + std::to_string(bits));
  }
  template <typename Int, typename = std::enable_if_t<std::is_integral_v<Int>>>
  dump& operator()(const char* name, Int v) {
    return (*this)(name, "i" + std::to_string(v));
  }
  [[nodiscard]] const std::string& str() const { return out_; }

 private:
  std::string out_;
};

std::string fields(const api::request_v1& r) {
  const api::synthesis_options_v1& s = r.synthesis;
  const api::lint_options_v1& l = r.lint;
  return dump()("id", r.id)("op", r.op)("api_version", r.api_version)(
             "path", r.source.path)("text", r.source.text)(
             "format", r.source.format)("design", r.design_text)(
             "assignment", r.assignment)("fail_on", r.fail_on)(
             "deadline", r.deadline_seconds)("s.labeler", s.labeler)(
             "s.gamma", s.gamma)("s.alignment", s.alignment)(
             "s.time_limit", s.time_limit_seconds)("s.threads", s.threads)(
             "s.max_rows", s.max_rows)("s.max_columns", s.max_columns)(
             "s.partition", s.partition)("s.separate", s.separate_robdds)(
             "s.minimize", s.minimize_network)("s.order", s.variable_order)(
             "s.kernelize", s.kernelize)("s.validate", s.validate)(
             "s.verify", s.verify)("s.trace", s.trace_json_path)(
             "s.memory", s.memory_limit_bytes)(
             "s.deadline", s.deadline_seconds)(
             "s.flight", s.flight_record_path)("l.labeler", l.labeler)(
             "l.gamma", l.gamma)("l.time_limit", l.time_limit_seconds)(
             "l.threads", l.threads)("l.equivalence", l.equivalence)(
             "l.electrical", l.electrical)("l.margin", l.margin_threshold)(
             "l.criticality", l.criticality)("l.limit", l.criticality_limit)
      .str();
}

std::string fields(const api::response_v1& r) {
  const api::synthesis_stats_v1& s = r.stats;
  dump d;
  d("id", r.id)("ok", r.ok)("code", api::error_code_name(r.code))(
      "error", r.error_message)("design", r.design_text)(
      "has_stats", r.has_stats)(
      "graph_nodes", s.graph_nodes)("vh_count", s.vh_count)("rows", s.rows)(
      "columns", s.columns)("semiperimeter", s.semiperimeter)(
      "max_dimension", s.max_dimension)("area", s.area)(
      "power_proxy", s.power_proxy)("delay_steps", s.delay_steps)(
      "optimal", s.optimal)("relative_gap", s.relative_gap)(
      "synthesis_seconds", s.synthesis_seconds)("arrays", s.arrays)(
      "cut_edges", s.cut_edges)("bridges", s.bridge_connections)(
      "total_semiperimeter", s.total_semiperimeter);
  for (const api::check_result_v1* c : {&r.validation, &r.verification})
    d("ran", c->ran)("passed", c->passed)("detail", c->detail);
  for (const api::diagnostic_v1& g : r.diagnostics) {
    d("check", g.check)("severity", g.severity)("message", g.message)(
        "fix", g.fix)("anchors", g.anchors.size());
    for (const std::string& a : g.anchors) d("anchor", a);
  }
  d("lint_ran", r.lint_ran)("clean", r.lint_clean)("errors", r.lint_errors)(
      "warnings", r.lint_warnings)("notes", r.lint_notes)(
      "electrical_ran", r.electrical_ran)("safe", r.electrically_safe)(
      "margin", r.min_margin_ratio)("criticality_ran", r.criticality_ran)(
      "analyzed", r.junctions_analyzed)("critical", r.critical_junctions)(
      "truncated", r.criticality_truncated)("outputs", r.outputs)(
      "names", r.output_names.size());
  for (const std::string& n : r.output_names) d("name", n);
  d("service", r.service_seconds)("queue", r.queue_seconds);
  return d.str();
}

// --- seeded values -----------------------------------------------------------

/// Draws values whose every field survives the wire: doubles with at most
/// nine significant digits (the writer's %.9g), no NaN (written as null,
/// which no number field reads). `wide` integers span their whole type;
/// otherwise 64-bit ones keep at most 14 digits, so that a mutated digit
/// still leaves them below 2^53, where a double holds them exactly.
class value_source {
 public:
  value_source(std::uint64_t seed, bool wide) : random_(seed), wide_(wide) {}

  std::string text() {
    static const char* const pieces[] = {
        "a",    "Z",      "0",      " ",  "\"", "\\",     "/",
        "\n",   "\t",     "\r",     "\x01", "\x1f", "\x7f", "\xc3\xa9",
        "\xe2\x86\x92", "\xf0\x9f\x98\x80", "{", "}",  ":",      ",",
        "[",    "]",      "\\u0041", "null", "1e5", ".names a f"};
    std::string out;
    const std::uint64_t n = random_.next_below(9);
    for (std::uint64_t i = 0; i < n; ++i)
      out += pieces[random_.next_below(std::size(pieces))];
    return out;
  }
  double real() {
    const double digits = static_cast<double>(random_.next_below(1000000000));
    const double scale =
        std::pow(10.0, static_cast<double>(random_.next_below(12)));
    const double magnitude =
        random_.next_bool() ? digits / scale : digits * scale;
    switch (random_.next_below(4)) {
      case 0: return 0.0;
      case 1: return -magnitude;
      default: return magnitude;
    }
  }
  int integer() {
    switch (random_.next_below(5)) {
      case 0: return std::numeric_limits<int>::max();
      case 1: return std::numeric_limits<int>::min();
      default:
        return static_cast<int>(random_.next_below(2000001)) - 1000000;
    }
  }
  std::uint64_t count() {
    const std::uint64_t top = wide_ ? std::numeric_limits<std::uint64_t>::max()
                                    : std::uint64_t{99999999999999};
    switch (random_.next_below(4)) {
      case 0: return top;
      case 1: return random_.next_below(1000);
      default: return random_.next_below(top);
    }
  }
  long long signed_count() {
    const auto n = static_cast<long long>(count() >> 1);
    return random_.next_bool() ? -n : n;
  }
  bool flag() { return random_.next_bool(); }
  std::uint64_t below(std::uint64_t bound) { return random_.next_below(bound); }

 private:
  rng random_;
  bool wide_;
};

api::request_v1 random_request(value_source& v) {
  api::request_v1 r;
  r.id = v.text();
  r.op = v.text();
  r.api_version = v.flag() ? 0 : v.integer();
  if (v.flag()) {
    r.source.path = v.text();
    r.source.text = v.text();
    r.source.format = v.text();
  }
  r.design_text = v.text();
  r.assignment = v.text();
  r.fail_on = v.text();
  r.deadline_seconds = v.real();
  api::synthesis_options_v1& s = r.synthesis;
  s.labeler = v.text();
  s.gamma = v.real();
  s.alignment = v.flag();
  s.time_limit_seconds = v.real();
  s.threads = v.integer();
  s.max_rows = v.integer();
  s.max_columns = v.integer();
  s.partition = v.flag();
  s.separate_robdds = v.flag();
  s.minimize_network = v.flag();
  s.variable_order = v.text();
  s.kernelize = v.flag();
  s.validate = v.flag();
  s.verify = v.flag();
  s.trace_json_path = v.text();
  s.memory_limit_bytes = v.count();
  s.deadline_seconds = v.real();
  s.flight_record_path = v.text();
  api::lint_options_v1& l = r.lint;
  l.labeler = v.text();
  l.gamma = v.real();
  l.time_limit_seconds = v.real();
  l.threads = v.integer();
  l.equivalence = v.flag();
  l.electrical = v.flag();
  l.margin_threshold = v.real();
  l.criticality = v.flag();
  l.criticality_limit = v.integer();
  return r;
}

api::response_v1 random_response(value_source& v) {
  api::response_v1 r;
  r.id = v.text();
  r.ok = v.flag();
  r.code = static_cast<api::error_code_v1>(v.below(9));
  r.error_message = v.text();
  r.design_text = v.text();
  r.has_stats = v.flag();
  if (r.has_stats) {
    api::synthesis_stats_v1& s = r.stats;
    s.graph_nodes = v.count();
    s.vh_count = v.integer();
    s.rows = v.integer();
    s.columns = v.integer();
    s.semiperimeter = v.integer();
    s.max_dimension = v.integer();
    s.area = v.signed_count();
    s.power_proxy = v.integer();
    s.delay_steps = v.integer();
    s.optimal = v.flag();
    s.relative_gap = v.real();
    s.synthesis_seconds = v.real();
    s.arrays = v.integer();
    s.cut_edges = v.integer();
    s.bridge_connections = v.integer();
    s.total_semiperimeter = v.integer();
  }
  for (api::check_result_v1* c : {&r.validation, &r.verification})
    if (v.flag()) *c = {true, v.flag(), v.text()};
  const std::uint64_t diagnostics = v.below(4);
  for (std::uint64_t i = 0; i < diagnostics; ++i) {
    api::diagnostic_v1 d{v.text(), v.text(), v.text(), v.text(), {}};
    const std::uint64_t anchors = v.below(3);
    for (std::uint64_t a = 0; a < anchors; ++a) d.anchors.push_back(v.text());
    r.diagnostics.push_back(std::move(d));
  }
  r.lint_ran = v.flag();
  if (r.lint_ran) {
    r.lint_clean = v.flag();
    r.lint_errors = v.count();
    r.lint_warnings = v.count();
    r.lint_notes = v.count();
    r.electrical_ran = v.flag();
    if (r.electrical_ran) {
      r.electrically_safe = v.flag();
      r.min_margin_ratio = v.real();
    }
    r.criticality_ran = v.flag();
    if (r.criticality_ran) {
      r.junctions_analyzed = v.integer();
      r.critical_junctions = v.integer();
      r.criticality_truncated = v.flag();
    }
  }
  r.outputs = v.text();
  const std::uint64_t names = v.below(4);
  for (std::uint64_t i = 0; i < names; ++i) r.output_names.push_back(v.text());
  r.service_seconds = v.real();
  r.queue_seconds = v.real();
  return r;
}

TEST(WireCodecTest, SeededRequestsRoundTripExactly) {
  value_source v(2024, /*wide=*/true);
  for (int i = 0; i < 300; ++i) {
    const api::request_v1 r = random_request(v);
    const std::string line = api::to_json(r);
    const api::request_v1 back = api::request_from_json(line);
    EXPECT_EQ(fields(back), fields(r)) << line;
    EXPECT_EQ(api::to_json(back), line);
  }
}

TEST(WireCodecTest, SeededResponsesRoundTripExactly) {
  value_source v(4048, /*wide=*/true);
  for (int i = 0; i < 300; ++i) {
    const api::response_v1 r = random_response(v);
    const std::string line = api::to_json(r);
    const api::response_v1 back = api::response_from_json(line);
    EXPECT_EQ(fields(back), fields(r)) << line;
    EXPECT_EQ(api::to_json(back), line);
  }
}

// --- repeated keys -----------------------------------------------------------

TEST(WireCodecTest, RequestsRejectARepeatedKeyAtAnyLevel) {
  for (const char* line : {
           R"({"op":"lint","op":"lint"})",
           // The tree reader kept the second copy and never saw the typo.
           R"({"op":"lint","synthesis":{"gama":1},"synthesis":{}})",
           R"({"op":"lint","synthesis":{},"synthesis":{}})",
           R"({"synthesis":{"threads":1,"threads":1}})",
           R"({"source":{"text":"a","text":"b"}})",
           R"({"lint":{"gamma":0.5,"gamma":0.5}})",
           R"({"op":"lint","\u006fp":"lint"})"}) {
    EXPECT_THROW((void)api::request_from_json(line), api::parse_error) << line;
  }
}

TEST(WireCodecTest, ResponsesKeepTheLastCopyOfARepeatedKey) {
  const api::response_v1 r = api::response_from_json(
      R"({"id":"a","id":"b","stats":{"rows":1},"stats":{"columns":2},)"
      R"("output_names":["x"],"output_names":["y","z"],)"
      R"("lint":{"errors":3,"electrical":{"safe":true}},"lint":{"notes":4},)"
      R"("diagnostics":[{"check":"A"}],"diagnostics":[5,{"check":"B"}]})");
  EXPECT_EQ(r.id, "b");
  EXPECT_TRUE(r.has_stats);
  EXPECT_EQ(r.stats.rows, 0);
  EXPECT_EQ(r.stats.columns, 2);
  EXPECT_EQ(r.output_names, (std::vector<std::string>{"y", "z"}));
  EXPECT_TRUE(r.lint_ran);
  EXPECT_EQ(r.lint_errors, 0U);
  EXPECT_EQ(r.lint_notes, 4U);
  EXPECT_FALSE(r.electrical_ran);
  // A section that is not an object counts as present and sets nothing.
  ASSERT_EQ(r.diagnostics.size(), 2U);
  EXPECT_EQ(r.diagnostics[0].check, "");
  EXPECT_EQ(r.diagnostics[1].check, "B");
}

TEST(WireCodecTest, DeepNestingIsAParseErrorNotACrash) {
  // The tree reader recursed once per level: a line like this one overflowed
  // the stack of whatever parsed it, compact-serve included.
  const std::string deep = std::string(200000, '[') + std::string(200000, ']');
  EXPECT_THROW((void)api::request_from_json("{\"id\":" + deep + "}"),
               api::parse_error);
  EXPECT_THROW((void)api::response_from_json("{\"future\":" + deep + "}"),
               api::parse_error);
  EXPECT_THROW((void)json::parse(deep), compact::parse_error);
  // A thousand levels, the response's own object included, still read.
  const std::string nested = std::string(999, '[') + std::string(999, ']');
  EXPECT_NO_THROW((void)json::parse("[" + nested + "]"));
  EXPECT_THROW((void)json::parse("[[" + nested + "]]"), compact::parse_error);
  EXPECT_NO_THROW(
      (void)api::response_from_json("{\"future\":" + nested + "}"));
}

// --- differential check against the tree readers -----------------------------

// The readers the codec had before the pull readers: json::parse, then a walk
// of the document tree. They are the reference the pull readers must agree
// with. Integer fields use the checked conversion both now share (integral
// and in range before any cast); before it, out-of-range values were
// undefined behaviour and 1.5 read as 1 in some fields.
namespace reference {

[[noreturn]] void fail(const std::string& message) {
  throw compact::parse_error(message);
}

template <typename Int>
Int as_integer(const json::value& v, const char* what) {
  const double n = v.as_number();
  if (std::is_unsigned_v<Int> && n < 0)
    fail(std::string(what) + " must be >= 0");
  if (n != std::trunc(n)) fail(std::string(what) + " must be an integer");
  using limits = std::numeric_limits<Int>;
  if (!(n >= static_cast<double>(limits::min()) &&
        n < static_cast<double>(limits::max()) + 1.0))
    fail(std::string(what) + " is out of range");
  return static_cast<Int>(n);
}

void parse_source(const json::value& v, api::netlist_source& out) {
  for (const auto& [key, val] : v.as_object()) {
    if (key == "path")
      out.path = val->as_string();
    else if (key == "text")
      out.text = val->as_string();
    else if (key == "format")
      out.format = val->as_string();
    else
      fail("unknown source field '" + key + "'");
  }
}

void parse_synthesis(const json::value& v, api::synthesis_options_v1& o) {
  for (const auto& [key, val] : v.as_object()) {
    if (key == "labeler")
      o.labeler = val->as_string();
    else if (key == "gamma")
      o.gamma = val->as_number();
    else if (key == "alignment")
      o.alignment = val->as_bool();
    else if (key == "time_limit_seconds")
      o.time_limit_seconds = val->as_number();
    else if (key == "threads")
      o.threads = as_integer<int>(*val, "threads");
    else if (key == "max_rows")
      o.max_rows = as_integer<int>(*val, "max_rows");
    else if (key == "max_columns")
      o.max_columns = as_integer<int>(*val, "max_columns");
    else if (key == "partition")
      o.partition = val->as_bool();
    else if (key == "separate_robdds")
      o.separate_robdds = val->as_bool();
    else if (key == "minimize_network")
      o.minimize_network = val->as_bool();
    else if (key == "variable_order")
      o.variable_order = val->as_string();
    else if (key == "kernelize")
      o.kernelize = val->as_bool();
    else if (key == "validate")
      o.validate = val->as_bool();
    else if (key == "verify")
      o.verify = val->as_bool();
    else if (key == "trace_json_path")
      o.trace_json_path = val->as_string();
    else if (key == "memory_limit_bytes")
      o.memory_limit_bytes =
          as_integer<std::uint64_t>(*val, "memory_limit_bytes");
    else if (key == "deadline_seconds")
      o.deadline_seconds = val->as_number();
    else if (key == "flight_record_path")
      o.flight_record_path = val->as_string();
    else
      fail("unknown synthesis field '" + key + "'");
  }
}

void parse_lint(const json::value& v, api::lint_options_v1& o) {
  for (const auto& [key, val] : v.as_object()) {
    if (key == "labeler")
      o.labeler = val->as_string();
    else if (key == "gamma")
      o.gamma = val->as_number();
    else if (key == "time_limit_seconds")
      o.time_limit_seconds = val->as_number();
    else if (key == "threads")
      o.threads = as_integer<int>(*val, "threads");
    else if (key == "equivalence")
      o.equivalence = val->as_bool();
    else if (key == "electrical")
      o.electrical = val->as_bool();
    else if (key == "margin_threshold")
      o.margin_threshold = val->as_number();
    else if (key == "criticality")
      o.criticality = val->as_bool();
    else if (key == "criticality_limit")
      o.criticality_limit = as_integer<int>(*val, "criticality_limit");
    else
      fail("unknown lint field '" + key + "'");
  }
}

api::request_v1 request_from_json(const std::string& text) {
  try {
    const json::value_ptr doc = json::parse(text);
    api::request_v1 r;
    for (const auto& [key, val] : doc->as_object()) {
      if (key == "id")
        r.id = val->as_string();
      else if (key == "op")
        r.op = val->as_string();
      else if (key == "api_version")
        r.api_version = as_integer<int>(*val, "api_version");
      else if (key == "source")
        parse_source(*val, r.source);
      else if (key == "design")
        r.design_text = val->as_string();
      else if (key == "assignment")
        r.assignment = val->as_string();
      else if (key == "deadline_seconds")
        r.deadline_seconds = val->as_number();
      else if (key == "fail_on")
        r.fail_on = val->as_string();
      else if (key == "synthesis")
        parse_synthesis(*val, r.synthesis);
      else if (key == "lint")
        parse_lint(*val, r.lint);
      else
        fail("unknown request field '" + key + "'");
    }
    return r;
  } catch (const compact::error& e) {
    throw api::parse_error(e.what());
  }
}

void read_check(const json::value* v, api::check_result_v1& out) {
  if (v == nullptr) return;
  if (const json::value* ran = v->find("ran")) out.ran = ran->as_bool();
  if (const json::value* passed = v->find("passed"))
    out.passed = passed->as_bool();
  if (const json::value* detail = v->find("detail"))
    out.detail = detail->as_string();
}

void read_diagnostics(const json::value* v,
                      std::vector<api::diagnostic_v1>& out) {
  if (v == nullptr) return;
  for (const json::value_ptr& item : v->as_array()) {
    api::diagnostic_v1 d;
    if (const json::value* check = item->find("check"))
      d.check = check->as_string();
    if (const json::value* severity = item->find("severity"))
      d.severity = severity->as_string();
    if (const json::value* message = item->find("message"))
      d.message = message->as_string();
    if (const json::value* fix = item->find("fix")) d.fix = fix->as_string();
    if (const json::value* anchors = item->find("anchors"))
      for (const json::value_ptr& a : anchors->as_array())
        d.anchors.push_back(a->as_string());
    out.push_back(std::move(d));
  }
}

api::response_v1 response_from_json(const std::string& text) {
  try {
    const json::value_ptr doc = json::parse(text);
    api::response_v1 r;
    const json::value& v = *doc;
    (void)v.as_object();  // must be an object
    if (const json::value* id = v.find("id")) r.id = id->as_string();
    if (const json::value* ok = v.find("ok")) r.ok = ok->as_bool();
    if (const json::value* code = v.find("code")) {
      const std::optional<api::error_code_v1> parsed =
          api::parse_error_code(code->as_string());
      if (!parsed) fail("unknown error code '" + code->as_string() + "'");
      r.code = *parsed;
    }
    if (const json::value* e = v.find("error"))
      r.error_message = e->as_string();
    if (const json::value* d = v.find("design")) r.design_text = d->as_string();
    if (const json::value* stats = v.find("stats")) {
      r.has_stats = true;
      api::synthesis_stats_v1& s = r.stats;
      if (const json::value* x = stats->find("graph_nodes"))
        s.graph_nodes = as_integer<std::size_t>(*x, "graph_nodes");
      if (const json::value* x = stats->find("vh_count"))
        s.vh_count = as_integer<int>(*x, "vh_count");
      if (const json::value* x = stats->find("rows"))
        s.rows = as_integer<int>(*x, "rows");
      if (const json::value* x = stats->find("columns"))
        s.columns = as_integer<int>(*x, "columns");
      if (const json::value* x = stats->find("semiperimeter"))
        s.semiperimeter = as_integer<int>(*x, "semiperimeter");
      if (const json::value* x = stats->find("max_dimension"))
        s.max_dimension = as_integer<int>(*x, "max_dimension");
      if (const json::value* x = stats->find("area"))
        s.area = as_integer<long long>(*x, "area");
      if (const json::value* x = stats->find("power_proxy"))
        s.power_proxy = as_integer<int>(*x, "power_proxy");
      if (const json::value* x = stats->find("delay_steps"))
        s.delay_steps = as_integer<int>(*x, "delay_steps");
      if (const json::value* x = stats->find("optimal"))
        s.optimal = x->as_bool();
      if (const json::value* x = stats->find("relative_gap"))
        s.relative_gap = x->as_number();
      if (const json::value* x = stats->find("synthesis_seconds"))
        s.synthesis_seconds = x->as_number();
      if (const json::value* x = stats->find("arrays"))
        s.arrays = as_integer<int>(*x, "arrays");
      if (const json::value* x = stats->find("cut_edges"))
        s.cut_edges = as_integer<int>(*x, "cut_edges");
      if (const json::value* x = stats->find("bridge_connections"))
        s.bridge_connections = as_integer<int>(*x, "bridge_connections");
      if (const json::value* x = stats->find("total_semiperimeter"))
        s.total_semiperimeter = as_integer<int>(*x, "total_semiperimeter");
    }
    read_check(v.find("validation"), r.validation);
    read_check(v.find("verification"), r.verification);
    read_diagnostics(v.find("diagnostics"), r.diagnostics);
    if (const json::value* lint = v.find("lint")) {
      r.lint_ran = true;
      if (const json::value* x = lint->find("clean"))
        r.lint_clean = x->as_bool();
      if (const json::value* x = lint->find("errors"))
        r.lint_errors = as_integer<std::uint64_t>(*x, "errors");
      if (const json::value* x = lint->find("warnings"))
        r.lint_warnings = as_integer<std::uint64_t>(*x, "warnings");
      if (const json::value* x = lint->find("notes"))
        r.lint_notes = as_integer<std::uint64_t>(*x, "notes");
      if (const json::value* e = lint->find("electrical")) {
        r.electrical_ran = true;
        if (const json::value* x = e->find("safe"))
          r.electrically_safe = x->as_bool();
        if (const json::value* x = e->find("min_margin_ratio"))
          r.min_margin_ratio = x->as_number();
      }
      if (const json::value* c = lint->find("criticality")) {
        r.criticality_ran = true;
        if (const json::value* x = c->find("junctions_analyzed"))
          r.junctions_analyzed = as_integer<int>(*x, "junctions_analyzed");
        if (const json::value* x = c->find("critical_junctions"))
          r.critical_junctions = as_integer<int>(*x, "critical_junctions");
        if (const json::value* x = c->find("truncated"))
          r.criticality_truncated = x->as_bool();
      }
    }
    if (const json::value* o = v.find("outputs")) r.outputs = o->as_string();
    if (const json::value* names = v.find("output_names"))
      for (const json::value_ptr& n : names->as_array())
        r.output_names.push_back(n->as_string());
    if (const json::value* s = v.find("service_seconds"))
      r.service_seconds = s->as_number();
    if (const json::value* q = v.find("queue_seconds"))
      r.queue_seconds = q->as_number();
    return r;
  } catch (const compact::error& e) {
    throw api::parse_error(e.what());
  }
}

}  // namespace reference

/// Length of the JSON value that starts at `at`, or 0 when none does.
std::size_t value_length(const std::string& line, std::size_t at) {
  try {
    json::reader in(std::string_view(line).substr(at));
    in.skip();
    return in.offset();
  } catch (const compact::parse_error&) {
    return 0;
  }
}

/// One mutation of a wire line: a truncation, a byte flip, inserted
/// whitespace or escape, an unknown member, a value of another kind, or a
/// repeated member.
std::string mutate(value_source& v, std::string line) {
  if (line.empty()) return line;
  const std::size_t at = v.below(line.size());
  std::vector<std::size_t> colons;
  for (std::size_t i = 0; i < line.size(); ++i)
    if (line[i] == ':') colons.push_back(i + 1);
  switch (v.below(7)) {
    case 0:
      line.resize(at);
      break;
    case 1: {
      static const char palette[] = "{}[]\":,\\ -+.eE019atfnu\x01\x7f";
      line[at] = palette[v.below(sizeof palette - 1)];
      break;
    }
    case 2: {
      // Whitespace after a random structural character, which is where
      // JSON allows it (inside a string it just changes the text).
      std::vector<std::size_t> gaps;
      for (std::size_t i = 0; i < line.size(); ++i)
        if (std::string_view("{[,:").find(line[i]) != std::string_view::npos)
          gaps.push_back(i + 1);
      const std::size_t gap = gaps.empty() ? at : gaps[v.below(gaps.size())];
      line.insert(gap, std::string(1, " \t\n\r"[v.below(4)]));
      break;
    }
    case 3: {
      static const char* const escapes[] = {"\\n", "\\u0041", "\\\"", "\\/",
                                            "\\x", "\\u12", "\\ud83d\\ude00"};
      line.insert(at, escapes[v.below(std::size(escapes))]);
      break;
    }
    case 4: {
      const std::size_t brace = line.find('{', at);
      if (brace != std::string::npos)
        line.insert(brace + 1, R"("zz_unknown":[1,{"a":null}],)");
      break;
    }
    case 5: {
      if (colons.empty()) break;
      const std::size_t start = colons[v.below(colons.size())];
      const std::size_t length = value_length(line, start);
      if (length == 0) break;
      static const char* const values[] = {
          "1",    "-2.5", "\"s\"", "true",     "null",    "[]",    "{}",
          "1e30", "1.5",  "-1",    "[1,\"a\"]", "{\"x\":1}", "1e10", "+5"};
      line.replace(start, length, values[v.below(std::size(values))]);
      break;
    }
    default: {
      if (colons.empty()) break;
      const std::size_t start = colons[v.below(colons.size())];
      const std::size_t key = line.rfind('"', start >= 3 ? start - 3 : 0);
      const std::size_t length = value_length(line, start);
      if (key == std::string::npos || length == 0) break;
      const std::string member = line.substr(key, start + length - key);
      line.insert(start + length, "," + member);
      break;
    }
  }
  return line;
}

void find_repeats(json::reader& in, bool& repeated) {
  switch (in.peek()) {
    case json::kind::object: {
      std::set<std::string> keys;
      in.object([&](std::string_view key) {
        if (!keys.insert(std::string(key)).second) repeated = true;
        find_repeats(in, repeated);
      });
      return;
    }
    case json::kind::array:
      in.array([&] { find_repeats(in, repeated); });
      return;
    default:
      in.skip();
  }
}

/// True when `line` is valid JSON in which some object repeats a key.
bool has_repeated_key(const std::string& line) {
  try {
    json::reader in(line);
    bool repeated = false;
    find_repeats(in, repeated);
    in.end();
    return repeated;
  } catch (const compact::parse_error&) {
    return false;
  }
}

/// The fields a reader fills, or nullopt when it throws api::parse_error.
/// Any other exception escapes and fails the test.
template <typename Read>
std::optional<std::string> outcome(Read&& read, const std::string& line) {
  try {
    return fields(read(line));
  } catch (const api::parse_error&) {
    return std::nullopt;
  }
}

TEST(WireCodecTest, PullReadersAgreeWithTheTreeReadersOnMutatedLines) {
  value_source v(77, /*wide=*/false);
  int accepted = 0;
  int rejected = 0;
  int repeats = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    const bool request = trial % 2 == 0;
    std::string line = request ? api::to_json(random_request(v))
                               : api::to_json(random_response(v));
    const std::uint64_t mutations = 1 + v.below(3);
    for (std::uint64_t m = 0; m < mutations; ++m) line = mutate(v, line);

    const std::optional<std::string> ours =
        request ? outcome(api::request_from_json, line)
                : outcome(api::response_from_json, line);
    const std::optional<std::string> theirs =
        request ? outcome(reference::request_from_json, line)
                : outcome(reference::response_from_json, line);
    if (has_repeated_key(line)) {
      // The one deliberate difference: a request must not repeat a key; a
      // response keeps the last copy, and every copy must be well-formed.
      ++repeats;
      if (request) {
        EXPECT_FALSE(ours.has_value()) << line;
      } else if (ours.has_value()) {
        EXPECT_EQ(ours, theirs) << line;
      }
      continue;
    }
    EXPECT_EQ(ours, theirs) << line;
    (ours.has_value() ? accepted : rejected) += 1;
  }
  // The mutations reach both verdicts and the repeated-key rule.
  EXPECT_GT(accepted, 400);
  EXPECT_GT(rejected, 400);
  EXPECT_GT(repeats, 100);
}

}  // namespace
