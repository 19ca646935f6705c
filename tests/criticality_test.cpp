// Symbolic fault-criticality engine (verify/criticality, the FLTxxx
// family) against exhaustive fault injection: a junction the engine calls
// non-critical must be provably masked — injecting the corresponding
// stuck-at fault and evaluating every assignment must reproduce the
// fault-free outputs — and a critical one must flip some output on some
// assignment. Exhaustive digital evaluation is the ground truth.
#include <gtest/gtest.h>

#include <sstream>
#include <utility>
#include <vector>

#include "core/partition.hpp"
#include "core/pipeline.hpp"
#include "frontend/benchgen.hpp"
#include "frontend/to_bdd.hpp"
#include "verify/analyzer.hpp"
#include "verify/criticality.hpp"
#include "xbar/evaluate.hpp"
#include "xbar/faults.hpp"

namespace compact::verify {
namespace {

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
    core::synthesize(ctx);
  }
};

/// Does injecting `f` flip any sensed output on any assignment?
bool fault_observable(const xbar::crossbar& design, int variable_count,
                      const xbar::fault& f) {
  const xbar::crossbar faulty = xbar::inject_faults(design, {f});
  std::vector<bool> assignment(static_cast<std::size_t>(variable_count));
  for (std::uint64_t bits = 0; bits < (1ull << variable_count); ++bits) {
    for (int v = 0; v < variable_count; ++v)
      assignment[static_cast<std::size_t>(v)] = ((bits >> v) & 1) != 0;
    if (xbar::evaluate(design, assignment) !=
        xbar::evaluate(faulty, assignment))
      return true;
  }
  return false;
}

/// The acceptance direction, exhaustively: the symbolic verdict must match
/// fault injection junction for junction (both fault polarities).
void expect_agreement(const xbar::crossbar& design, int variable_count) {
  criticality_options options;
  options.include_off_junctions = true;
  const criticality_report report =
      analyze_criticality(design, variable_count, options);
  EXPECT_FALSE(report.truncated);

  for (const junction_criticality& j : report.junctions) {
    if (j.kind != xbar::literal_kind::on) {
      const bool observable = fault_observable(
          design, variable_count,
          {j.row, j.column, xbar::fault_kind::stuck_off});
      EXPECT_EQ(j.stuck_open_critical, observable)
          << "stuck-open at (" << j.row << ", " << j.column << ")";
    }
    if (j.kind != xbar::literal_kind::off ||
        options.include_off_junctions) {
      const bool observable = fault_observable(
          design, variable_count,
          {j.row, j.column, xbar::fault_kind::stuck_on});
      EXPECT_EQ(j.stuck_closed_critical, observable)
          << "stuck-closed at (" << j.row << ", " << j.column << ")";
    }
  }
}

TEST(CriticalityTest, AgreesWithExhaustiveFaultInjection) {
  for (frontend::network net :
       {frontend::make_mux_tree(2), frontend::make_parity(4),
        frontend::make_decoder(3)}) {
    const synthesized s(std::move(net));
    ASSERT_TRUE(s.ctx.mapped.has_value());
    expect_agreement(s.ctx.mapped->design, s.net.input_count());
  }
}

TEST(CriticalityTest, PartitionedNonCriticalFaultsAreMasked) {
  const frontend::network net = frontend::make_parity(8, 2);
  bdd::manager m(net.input_count());
  const frontend::sbdd built = frontend::build_sbdd(net, m);
  core::synthesis_options options;
  options.time_limit_seconds = 5.0;
  options.max_rows = 10;
  options.max_columns = 10;
  options.partition = true;
  const core::synthesis_result result =
      core::synthesize(m, built.roots, built.names, options);
  ASSERT_TRUE(result.partitioned.has_value());
  const xbar::partitioned_design& design = *result.partitioned;
  ASSERT_GT(design.array_count(), 1);

  const criticality_report report =
      analyze_criticality(design, net.input_count(), {});
  ASSERT_FALSE(report.junctions.empty());

  const int variables = net.input_count();
  std::vector<bool> assignment(static_cast<std::size_t>(variables));
  for (const junction_criticality& j : report.junctions) {
    if (j.stuck_open_critical || j.kind == xbar::literal_kind::off) continue;
    // Claimed non-critical stuck-open: force the device off and check the
    // stitched evaluation over every assignment.
    xbar::partitioned_design faulty = design;
    faulty.fragment(j.array).set(j.row, j.column,
                                 {xbar::literal_kind::off, -1});
    for (std::uint64_t bits = 0; bits < (1ull << variables); ++bits) {
      for (int v = 0; v < variables; ++v)
        assignment[static_cast<std::size_t>(v)] = ((bits >> v) & 1) != 0;
      EXPECT_EQ(xbar::evaluate(faulty, assignment),
                xbar::evaluate(design, assignment))
          << "array " << j.array << " junction (" << j.row << ", "
          << j.column << ")";
    }
  }
}

TEST(CriticalityTest, FaultBudgetTruncatesLoudly) {
  const synthesized s(frontend::make_parity(4));
  ASSERT_TRUE(s.ctx.mapped.has_value());
  criticality_options options;
  options.max_faults = 2;
  const criticality_report report = analyze_criticality(
      s.ctx.mapped->design, s.net.input_count(), options);
  EXPECT_TRUE(report.truncated);
  EXPECT_LE(report.faults_analyzed, 2);

  const criticality_report full = analyze_criticality(
      s.ctx.mapped->design, s.net.input_count(), {});
  EXPECT_FALSE(full.truncated);
  EXPECT_GT(full.junction_count, report.junction_count);
}

TEST(CriticalityTest, RankingIsByAffectedOutputCount) {
  const synthesized s(frontend::make_decoder(3));
  ASSERT_TRUE(s.ctx.mapped.has_value());
  const criticality_report report = analyze_criticality(
      s.ctx.mapped->design, s.net.input_count(), {});
  for (std::size_t i = 1; i < report.junctions.size(); ++i)
    EXPECT_GE(report.junctions[i - 1].affected_outputs.size(),
              report.junctions[i].affected_outputs.size());
}

TEST(CriticalityTest, JsonMapRoundsTheReport) {
  const synthesized s(frontend::make_mux_tree(2));
  ASSERT_TRUE(s.ctx.mapped.has_value());
  const criticality_report report = analyze_criticality(
      s.ctx.mapped->design, s.net.input_count(), {});
  std::ostringstream os;
  write_criticality_json(report, os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"summary\""), std::string::npos);
  EXPECT_NE(json.find("\"junctions\": " +
                      std::to_string(report.junction_count)),
            std::string::npos);
  EXPECT_NE(json.find("\"affected_outputs\""), std::string::npos);
}

TEST(CriticalityTest, AnalyzerEmitsFltFamilyWhenRequested) {
  const synthesized s(frontend::make_mux_tree(2));
  artifacts a = make_artifacts(s.ctx);
  criticality_options options;
  a.criticality = &options;
  analysis_cache cache;
  a.cache = &cache;

  const report r = analyze(a);
  bool summary_seen = false;
  for (const diagnostic& d : r.diagnostics())
    if (d.check_id == "FLT001") summary_seen = true;
  EXPECT_TRUE(summary_seen);
  ASSERT_TRUE(cache.criticality.has_value());
  EXPECT_GT(cache.criticality->junction_count, 0);

  // The family rides the equivalence cost class: disabling it in the
  // analyzer options must silence FLT even with the artifact present.
  analyzer_options no_equivalence;
  no_equivalence.equivalence = false;
  const report quiet = analyze(a, no_equivalence);
  for (const diagnostic& d : quiet.diagnostics())
    EXPECT_NE(d.check_id.substr(0, 3), "FLT");
}

}  // namespace
}  // namespace compact::verify
