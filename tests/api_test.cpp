// The stable public facade (api/compact_api.hpp): the request/response
// schema, the opaque design handle, serialization round trips, and the
// structured error taxonomy — everything an embedding application can reach.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "api/compact_api.hpp"
#include "util/metrics.hpp"

namespace {

namespace api = compact::api;

constexpr const char* kMajority =
    ".model majority\n"
    ".inputs a b c\n"
    ".outputs f\n"
    ".names a b c f\n"
    "11- 1\n"
    "1-1 1\n"
    "-11 1\n"
    ".end\n";

api::netlist_source majority_source() {
  api::netlist_source source;
  source.text = kMajority;
  return source;
}

api::request_v1 majority_request() {
  api::request_v1 request;
  request.op = "synthesize";
  request.api_version = COMPACT_API_VERSION;
  request.source = majority_source();
  return request;
}

TEST(ApiTest, VersionMacroMatchesLibrary) {
  EXPECT_EQ(api::api_version(), COMPACT_API_VERSION);
}

TEST(ApiTest, SynthesizeMajorityEndToEnd) {
  api::request_v1 request = majority_request();
  request.synthesis.labeler = "oct";
  const api::response_v1 out = api::handle(request);
  ASSERT_TRUE(out.ok) << out.error_message;
  EXPECT_EQ(out.code, api::error_code_v1::none);
  ASSERT_TRUE(out.has_stats);

  EXPECT_GT(out.stats.rows, 0);
  EXPECT_GT(out.stats.columns, 0);
  EXPECT_EQ(out.stats.semiperimeter,
            static_cast<int>(out.stats.graph_nodes) + out.stats.vh_count);

  const api::design mapped = api::design::from_text(out.design_text);
  EXPECT_EQ(mapped.rows(), out.stats.rows);
  EXPECT_EQ(mapped.columns(), out.stats.columns);
  ASSERT_EQ(out.output_names.size(), 1u);
  EXPECT_EQ(out.output_names[0], "f");

  // Truth table of majority(a, b, c), declared-input order.
  for (int bits = 0; bits < 8; ++bits) {
    const bool a = (bits & 4) != 0;
    const bool b = (bits & 2) != 0;
    const bool c = (bits & 1) != 0;
    const bool expected = (a && b) || (a && c) || (b && c);
    EXPECT_EQ(mapped.evaluate_output({a, b, c}, "f"), expected)
        << "assignment " << bits;
  }
}

TEST(ApiTest, DesignSerializationRoundTrips) {
  const api::response_v1 out = api::handle(majority_request());
  ASSERT_TRUE(out.ok) << out.error_message;
  const api::design reloaded = api::design::from_text(out.design_text);
  EXPECT_EQ(reloaded.to_text(), out.design_text);
  EXPECT_EQ(reloaded.rows(), out.stats.rows);
  EXPECT_EQ(reloaded.columns(), out.stats.columns);
}

TEST(ApiTest, DesignIsCopyableAndMovable) {
  const api::response_v1 out = api::handle(majority_request());
  ASSERT_TRUE(out.ok) << out.error_message;
  const api::design mapped = api::design::from_text(out.design_text);
  api::design copy = mapped;
  EXPECT_EQ(copy.to_text(), mapped.to_text());
  const api::design moved = std::move(copy);
  EXPECT_EQ(moved.to_text(), mapped.to_text());
}

TEST(ApiTest, ValidateAndVerifyReportClean) {
  api::request_v1 request = majority_request();
  request.synthesis.validate = true;
  request.synthesis.verify = true;
  const api::response_v1 out = api::handle(request);
  ASSERT_TRUE(out.ok) << out.error_message;
  EXPECT_TRUE(out.validation.ran);
  EXPECT_TRUE(out.validation.passed) << out.validation.detail;
  EXPECT_TRUE(out.verification.ran);
  EXPECT_TRUE(out.verification.passed) << out.verification.detail;
}

TEST(ApiTest, VerifyReportsOnEveryShape) {
  // The analyzer and the validity check run once per synthesize request,
  // whatever the shape: the single SBDD, the composed separate-ROBDD
  // design, and a stitched multi-array design. 14 inputs: validity is
  // decided symbolically over all 2^14 assignments, not sampled.
  std::string inputs;
  for (int i = 0; i < 14; ++i) inputs += " x" + std::to_string(i);
  api::request_v1 request = majority_request();
  request.source.text = ".model wide\n.inputs" + inputs +
                        "\n.outputs f g\n.names" + inputs + " f\n" +
                        std::string(14, '1') +
                        " 1\n.names x0 x13 g\n10 1\n01 1\n.end\n";
  request.synthesis.labeler = "oct";
  request.synthesis.validate = true;
  request.synthesis.verify = true;
  api::request_v1 separate = request;
  separate.synthesis.separate_robdds = true;
  api::request_v1 partitioned = request;
  partitioned.synthesis.partition = true;
  partitioned.synthesis.max_rows = 8;
  partitioned.synthesis.max_columns = 8;
  for (const api::request_v1& r : {request, separate, partitioned}) {
    const api::response_v1 out = api::handle(r);
    ASSERT_TRUE(out.ok) << out.error_message;
    EXPECT_TRUE(out.verification.ran);
    EXPECT_TRUE(out.verification.passed) << out.verification.detail;
    EXPECT_TRUE(out.validation.ran);
    EXPECT_TRUE(out.validation.passed) << out.validation.detail;
    EXPECT_EQ(out.validation.detail.rfind("PASS (symbolic, ", 0), 0u)
        << out.validation.detail;
  }
  EXPECT_GE(api::handle(partitioned).stats.arrays, 2);
}

TEST(ApiTest, ValidateAndVerifyExtractTheDesignOnce) {
  // With both passes on, EQV001 and PAR003 read the validate pass's
  // verdict: one extraction per request, and the same findings as a
  // verify-only request. Every shape: single SBDD, separate ROBDDs, and a
  // stitched multi-array design.
  std::string inputs;
  for (int i = 0; i < 10; ++i) inputs += " x" + std::to_string(i);
  api::request_v1 request = majority_request();
  request.source.text = ".model wide\n.inputs" + inputs +
                        "\n.outputs f g\n.names" + inputs + " f\n" +
                        std::string(10, '1') +
                        " 1\n.names x0 x9 g\n10 1\n01 1\n.end\n";
  request.synthesis.labeler = "oct";
  request.synthesis.validate = true;
  request.synthesis.verify = true;
  api::request_v1 separate = request;
  separate.synthesis.separate_robdds = true;
  api::request_v1 partitioned = request;
  partitioned.synthesis.partition = true;
  partitioned.synthesis.max_rows = 8;
  partitioned.synthesis.max_columns = 8;

  const auto findings = [](const api::response_v1& r) {
    std::string text;
    for (const api::diagnostic_v1& d : r.diagnostics)
      text += d.check + ": " + d.message + " / " + d.fix + "\n";
    return text;
  };
  compact::set_metrics_enabled(true);
  const compact::metric_counter& extractions =
      compact::global_metrics().counter("verify.extractions");
  for (const api::request_v1& both : {request, separate, partitioned}) {
    api::request_v1 verify_only = both;
    verify_only.synthesis.validate = false;
    const std::uint64_t before = extractions.value();
    const api::response_v1 checked = api::handle(both);
    EXPECT_EQ(extractions.value() - before, 1u);
    const api::response_v1 alone = api::handle(verify_only);
    ASSERT_TRUE(checked.ok) << checked.error_message;
    ASSERT_TRUE(alone.ok) << alone.error_message;
    EXPECT_TRUE(checked.validation.passed) << checked.validation.detail;
    EXPECT_EQ(findings(checked), findings(alone));
    EXPECT_EQ(checked.verification.detail, alone.verification.detail);
    EXPECT_EQ(checked.design_text, alone.design_text);
  }
  compact::set_metrics_enabled(false);
  EXPECT_GE(api::handle(partitioned).stats.arrays, 2);
}

TEST(ApiTest, TraceJsonShowsValidateAndVerifyStages) {
  const std::filesystem::path trace =
      std::filesystem::temp_directory_path() / "compact_api_test_trace.jsonl";
  api::request_v1 request = majority_request();
  request.synthesis.labeler = "oct";
  request.synthesis.validate = true;
  request.synthesis.verify = true;
  request.synthesis.trace_json_path = trace.string();
  const api::response_v1 out = api::handle(request);
  ASSERT_TRUE(out.ok) << out.error_message;

  std::ifstream in(trace);
  std::string stages;
  for (std::string line; std::getline(in, line);)
    stages += line.substr(0, line.find(',')) + "\n";
  std::filesystem::remove(trace);
  for (const char* stage : {"build_graph", "label", "map", "validate", "verify"})
    EXPECT_NE(stages.find(std::string("{\"stage\":\"") + stage + "\""),
              std::string::npos)
        << stage << " missing from:\n" << stages;
}

TEST(ApiTest, SeparateRobddsAndThreadsMatchSharedResultsContract) {
  api::request_v1 request = majority_request();
  request.synthesis.labeler = "oct";
  request.synthesis.separate_robdds = true;
  request.synthesis.threads = 2;
  const api::response_v1 out = api::handle(request);
  ASSERT_TRUE(out.ok) << out.error_message;
  EXPECT_GT(out.stats.rows, 0);
  const api::design mapped = api::design::from_text(out.design_text);
  EXPECT_EQ(mapped.evaluate_output({true, true, false}, "f"), true);
}

TEST(ApiTest, BadOptionsReturnInvalidRequest) {
  api::request_v1 bad_gamma = majority_request();
  bad_gamma.synthesis.gamma = 1.5;
  EXPECT_EQ(api::handle(bad_gamma).code, api::error_code_v1::invalid_request);

  api::request_v1 no_source = majority_request();
  no_source.source = {};  // neither path nor text
  EXPECT_EQ(api::handle(no_source).code, api::error_code_v1::invalid_request);

  api::request_v1 bad_format = majority_request();
  bad_format.source.format = "vhdl";
  EXPECT_EQ(api::handle(bad_format).code, api::error_code_v1::parse);

  api::request_v1 bad_op = majority_request();
  bad_op.op = "transmogrify";
  const api::response_v1 out = api::handle(bad_op);
  EXPECT_EQ(out.code, api::error_code_v1::invalid_request);
  EXPECT_NE(out.error_message.find("transmogrify"), std::string::npos);
}

TEST(ApiTest, MalformedNetlistReturnsParseCode) {
  api::request_v1 request = majority_request();
  request.source.text =
      ".model broken\n.inputs a\n.outputs f\n.names a f\nZZ 1\n";
  const api::response_v1 out = api::handle(request);
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.code, api::error_code_v1::parse);
}

TEST(ApiTest, InfeasibleBudgetReturnsInfeasibleCode) {
  api::request_v1 request = majority_request();
  request.synthesis.labeler = "mip";
  request.synthesis.max_rows = 1;
  request.synthesis.time_limit_seconds = 5.0;
  const api::response_v1 out = api::handle(request);
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.code, api::error_code_v1::infeasible);
}

TEST(ApiTest, VersionMismatchIsStructured) {
  api::request_v1 request = majority_request();
  request.api_version = COMPACT_API_VERSION + 1;
  const api::response_v1 out = api::handle(request);
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.code, api::error_code_v1::version_mismatch);
  EXPECT_NE(out.error_message.find(std::to_string(COMPACT_API_VERSION)),
            std::string::npos);
}

TEST(ApiTest, PartitionedSynthesisSplitsAndStaysCorrect) {
  api::request_v1 request = majority_request();
  request.synthesis.labeler = "oct";
  request.synthesis.max_rows = 3;
  request.synthesis.max_columns = 3;
  request.synthesis.partition = true;
  const api::response_v1 out = api::handle(request);
  ASSERT_TRUE(out.ok) << out.error_message;
  EXPECT_GE(out.stats.arrays, 2);
  EXPECT_LE(out.stats.rows, 3);
  EXPECT_LE(out.stats.columns, 3);
  EXPECT_GT(out.stats.bridge_connections, 0);
  EXPECT_GE(out.stats.total_semiperimeter, out.stats.semiperimeter);

  const api::design mapped = api::design::from_text(out.design_text);
  EXPECT_EQ(mapped.array_count(), out.stats.arrays);
  for (int bits = 0; bits < 8; ++bits) {
    const bool a = (bits & 4) != 0;
    const bool b = (bits & 2) != 0;
    const bool c = (bits & 1) != 0;
    const bool expected = (a && b) || (a && c) || (b && c);
    EXPECT_EQ(mapped.evaluate_output({a, b, c}, "f"), expected)
        << "assignment " << bits;
  }
}

TEST(ApiTest, PartitionedDesignSerializesAsV2AndRoundTrips) {
  api::request_v1 request = majority_request();
  request.synthesis.labeler = "oct";
  request.synthesis.max_rows = 3;
  request.synthesis.max_columns = 3;
  request.synthesis.partition = true;
  const api::response_v1 out = api::handle(request);
  ASSERT_TRUE(out.ok) << out.error_message;
  EXPECT_EQ(out.design_text.rfind("xbar 2\n", 0), 0u) << out.design_text;

  const api::design reloaded = api::design::from_text(out.design_text);
  EXPECT_EQ(reloaded.to_text(), out.design_text);
}

TEST(ApiTest, UnpartitionedGuardNamesTheOverflowDimension) {
  api::request_v1 request = majority_request();
  request.synthesis.labeler = "oct";
  request.synthesis.max_rows = 2;
  const api::response_v1 out = api::handle(request);
  EXPECT_EQ(out.code, api::error_code_v1::infeasible);
  EXPECT_NE(out.error_message.find("rows"), std::string::npos)
      << out.error_message;
}

TEST(ApiTest, PartitionRejectsSeparateRobdds) {
  api::request_v1 request = majority_request();
  request.synthesis.partition = true;
  request.synthesis.separate_robdds = true;
  EXPECT_EQ(api::handle(request).code, api::error_code_v1::invalid_request);
}

TEST(ApiTest, LintCleanNetlist) {
  api::request_v1 request = majority_request();
  request.op = "lint";
  request.lint.time_limit_seconds = 5.0;
  const api::response_v1 out = api::handle(request);
  ASSERT_TRUE(out.ok) << out.error_message;
  EXPECT_TRUE(out.lint_ran);
  EXPECT_EQ(out.lint_errors, 0u)
      << (out.diagnostics.empty() ? "" : out.diagnostics[0].message);
  EXPECT_TRUE(out.lint_clean);
}

TEST(ApiTest, LintFlagsCorruptedDesign) {
  // Hand-written two-device AND design with a negated literal: functionally
  // wrong, so the equivalence family must report an error.
  api::request_v1 request;
  request.op = "lint";
  request.source.text =
      ".model tiny\n.inputs a b\n.outputs f\n.names a b f\n11 1\n.end\n";
  request.design_text =
      "xbar 1\ndim 2 1\ninput 1\noutput 0 f\nd 0 0 +1\nd 1 0 -0\nend\n";
  request.fail_on = "error";
  const api::response_v1 out = api::handle(request);
  ASSERT_TRUE(out.ok) << out.error_message;
  EXPECT_GT(out.lint_errors, 0u);
  EXPECT_FALSE(out.lint_clean);
}

TEST(ApiTest, LintCleanFailOnLevels) {
  api::request_v1 request;
  request.op = "lint";
  request.source.text =
      ".model tiny\n.inputs a b\n.outputs f\n.names a b f\n11 1\n.end\n";
  // Same design with an extra dead bitline: a warning but not an error.
  request.design_text =
      "xbar 1\ndim 2 2\ninput 1\noutput 0 f\nd 0 0 +1\nd 1 0 +0\nend\n";
  const api::response_v1 warn = api::handle(request);
  ASSERT_TRUE(warn.ok) << warn.error_message;
  EXPECT_EQ(warn.lint_errors, 0u);
  EXPECT_GT(warn.lint_warnings, 0u);
  EXPECT_FALSE(warn.lint_clean);  // default fail_on = warning

  request.fail_on = "error";
  const api::response_v1 ok = api::handle(request);
  EXPECT_TRUE(ok.lint_clean);

  request.fail_on = "bogus";
  EXPECT_EQ(api::handle(request).code, api::error_code_v1::invalid_request);
}

TEST(ApiTest, EvaluateOpSensesTheDesign) {
  const api::response_v1 built = api::handle(majority_request());
  ASSERT_TRUE(built.ok) << built.error_message;

  api::request_v1 request;
  request.op = "evaluate";
  request.design_text = built.design_text;
  request.assignment = "110";  // a=1, b=1, c=0 -> majority = 1
  const api::response_v1 out = api::handle(request);
  ASSERT_TRUE(out.ok) << out.error_message;
  EXPECT_EQ(out.outputs, "1");
  ASSERT_EQ(out.output_names.size(), 1u);
  EXPECT_EQ(out.output_names[0], "f");

  request.assignment = "100";  // minority -> 0
  EXPECT_EQ(api::handle(request).outputs, "0");

  request.assignment = "1x0";
  EXPECT_EQ(api::handle(request).code, api::error_code_v1::invalid_request);
}

}  // namespace
