// Static electrical-integrity engine (verify/electrical, the ELCxxx
// family): hand-built designs pin the resistive bounds, and the agreement
// suite pins the conservative direction against analog/mna on every small
// committed benchmark — a statically "safe" verdict must imply the nodal
// simulation also separates logic levels at the same corner. The engine
// only observes, so designs are byte-identical with the ELC pass on or
// off at any thread count.
#include <gtest/gtest.h>

#include <sstream>
#include <utility>

#include "analog/margins.hpp"
#include "api/compact_api.hpp"
#include "core/partition.hpp"
#include "core/pipeline.hpp"
#include "frontend/benchgen.hpp"
#include "frontend/blif.hpp"
#include "frontend/to_bdd.hpp"
#include "verify/analyzer.hpp"
#include "verify/electrical.hpp"
#include "xbar/serialize.hpp"

namespace compact::verify {
namespace {

std::string to_blif(const frontend::network& net) {
  std::ostringstream os;
  frontend::write_blif(net, os);
  return os.str();
}

struct synthesized {
  frontend::network net;
  bdd::manager m;
  frontend::sbdd built;
  core::synthesis_context ctx;

  explicit synthesized(frontend::network n)
      : net(std::move(n)), m(net.input_count()) {
    built = frontend::build_sbdd(net, m);
    ctx.manager = &m;
    ctx.roots = &built.roots;
    ctx.names = &built.names;
    ctx.options.time_limit_seconds = 5.0;
    core::make_synthesis_pipeline().run(ctx);
  }
};

TEST(ElectricalTest, SingleDevicePathBounds) {
  // Input row 0, output row 1, joined through column 0 by two devices:
  // the only conduction path carries exactly two junctions.
  xbar::crossbar design(2, 1);
  design.set_input_row(0);
  design.set_literal(0, 0, 0, true);
  design.set_on(1, 0);
  design.add_output(1, "f");

  const electrical_options options;
  const electrical_report report = analyze_electrical(design, options);
  ASSERT_EQ(report.outputs.size(), 1u);
  const output_margin& m = report.outputs[0];
  EXPECT_EQ(m.name, "f");
  EXPECT_EQ(m.min_on_devices, 2);
  EXPECT_EQ(m.worst_on_devices, 2);
  EXPECT_EQ(m.bridge_crossings, 0);
  EXPECT_DOUBLE_EQ(m.worst_on_resistance, 2.0 * options.model.r_on);
  EXPECT_GE(m.best_off_resistance, options.model.r_off);
  EXPECT_GE(m.margin_ratio, options.margin_threshold);
  EXPECT_TRUE(m.safe);
  EXPECT_TRUE(report.safe);
}

TEST(ElectricalTest, UnreachableOutputIsNotAMarginFailure) {
  // A dead output (no conduction path at all) belongs to the structural
  // and equivalence families; the electrical verdict must not pile on.
  xbar::crossbar design(2, 1);
  design.set_input_row(0);
  design.add_output(1, "dead");

  const electrical_report report = analyze_electrical(design, {});
  ASSERT_EQ(report.outputs.size(), 1u);
  EXPECT_EQ(report.outputs[0].min_on_devices, -1);
  EXPECT_TRUE(report.outputs[0].safe);
  EXPECT_TRUE(report.safe);
}

TEST(ElectricalTest, CollapsedDeviceCornerIsNeverSafe) {
  xbar::crossbar design(2, 1);
  design.set_input_row(0);
  design.set_literal(0, 0, 0, true);
  design.set_on(1, 0);
  design.add_output(1, "f");

  electrical_options options;
  options.model.r_on = options.model.r_off;  // ON paths == leakage
  const electrical_report report = analyze_electrical(design, options);
  ASSERT_EQ(report.outputs.size(), 1u);
  EXPECT_FALSE(report.outputs[0].safe);
  EXPECT_LT(report.outputs[0].margin_ratio, 1.0);
  EXPECT_FALSE(report.safe);
}

TEST(ElectricalTest, PartitionedDesignCountsBridgeCrossings) {
  const frontend::network net = frontend::make_parity(16, 2);
  bdd::manager m(net.input_count());
  const frontend::sbdd built = frontend::build_sbdd(net, m);
  core::synthesis_options options;
  options.time_limit_seconds = 5.0;
  options.max_rows = 12;
  options.max_columns = 12;
  options.partition = true;
  const core::partitioned_synthesis_result result =
      core::synthesize_partitioned(m, built.roots, built.names, options);
  ASSERT_GT(result.design.array_count(), 1);

  const electrical_report report =
      analyze_electrical(result.design, electrical_options{});
  ASSERT_FALSE(report.outputs.empty());
  bool crosses = false;
  for (const output_margin& o : report.outputs)
    if (o.bridge_crossings > 0) crosses = true;
  EXPECT_TRUE(crosses) << "a multi-array design must route some output "
                          "through at least one bridge";
}

/// The acceptance direction: static "safe" implies MNA separability with
/// the same device corner — on every committed small benchmark, so the
/// bound derivation cannot drift optimistic. Some benchmarks must come out
/// statically safe or the test is vacuous.
TEST(ElectricalTest, StaticSafeImpliesMnaSeparable) {
  const electrical_options options;
  const double sense_level =
      options.model.threshold * options.model.v_in;
  int statically_safe = 0;
  for (frontend::benchmark_spec& spec : frontend::benchmark_suite()) {
    if (spec.net.input_count() > 16) continue;  // MNA sweep budget
    const synthesized s(std::move(spec.net));
    ASSERT_TRUE(s.ctx.mapped.has_value()) << spec.name;
    const electrical_report report =
        analyze_electrical(s.ctx.mapped->design, options);
    if (!report.safe) continue;
    ++statically_safe;
    const analog::margin_report truth = analog::measure_margins(
        s.ctx.mapped->design, s.net.input_count(), options.model);
    EXPECT_TRUE(truth.separable) << spec.name;
    EXPECT_GE(truth.min_high_voltage, sense_level) << spec.name;
    EXPECT_LT(truth.max_low_voltage, sense_level) << spec.name;
  }
  EXPECT_GT(statically_safe, 0)
      << "no benchmark was statically safe; the agreement test is vacuous";
}

TEST(ElectricalTest, VerifyPassWithElectricalKeepsDesignsByteIdentical) {
  // --verify-electrical: a synthesize request whose analysis runs the ELC
  // family. The analysis observes; it must never change the design.
  api::request_v1 request;
  request.op = "synthesize";
  request.source.text = to_blif(frontend::make_mux_tree(2));
  request.synthesis.time_limit_seconds = 5.0;

  const api::response_v1 plain = api::handle(request);
  ASSERT_TRUE(plain.ok) << plain.error_message;
  EXPECT_FALSE(plain.verification.ran);

  request.synthesis.verify = true;
  request.lint.electrical = true;
  for (const int threads : {1, 2, 8}) {
    request.synthesis.threads = threads;
    const api::response_v1 verified = api::handle(request);
    ASSERT_TRUE(verified.ok) << verified.error_message;
    EXPECT_TRUE(verified.verification.ran);
    bool electrical_ran = false;
    for (const api::diagnostic_v1& d : verified.diagnostics)
      if (d.check.starts_with("ELC")) electrical_ran = true;
    EXPECT_TRUE(electrical_ran) << threads << " threads";
    EXPECT_EQ(verified.design_text, plain.design_text) << threads << " threads";
  }
}

TEST(ElectricalTest, AnalyzerEmitsElcFamilyAndFillsCache) {
  const synthesized s(frontend::make_decoder(3));
  artifacts a = make_artifacts(s.ctx);
  electrical_options options;
  a.electrical = &options;
  analysis_cache cache;
  a.cache = &cache;

  const report r = analyze(a);
  bool summary_seen = false;
  for (const diagnostic& d : r.diagnostics())
    if (d.check_id == "ELC002") summary_seen = true;
  EXPECT_TRUE(summary_seen);
  ASSERT_TRUE(cache.electrical.has_value());
  EXPECT_FALSE(cache.electrical->outputs.empty());

  // Without the options pointer the family must stay silent.
  artifacts quiet = make_artifacts(s.ctx);
  const report qr = analyze(quiet);
  for (const diagnostic& d : qr.diagnostics())
    EXPECT_NE(d.check_id.substr(0, 3), "ELC");
}

}  // namespace
}  // namespace compact::verify
