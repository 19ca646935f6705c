// The static design analyzer: BDD transfer, sneak-path extraction,
// symbolic equivalence (including agreement with exhaustive validation),
// the check registry, and targeted corruptions that each specific check
// must catch.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>

#include "bdd/transfer.hpp"
#include "core/pipeline.hpp"
#include "frontend/benchgen.hpp"
#include "frontend/blif.hpp"
#include "frontend/to_bdd.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "verify/analyzer.hpp"
#include "xbar/equivalence.hpp"
#include "xbar/evaluate.hpp"

#include "exhaustive_oracle.hpp"

namespace compact::verify {
namespace {

/// Synthesize a benchgen network through the pipeline, keeping every
/// intermediate artifact alive for the analyzer.
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

  [[nodiscard]] artifacts art() const { return make_artifacts(ctx); }
};

// --- bdd transfer -----------------------------------------------------------

TEST(TransferTest, PreservesFunctionAcrossManagers) {
  bdd::manager src(4);
  const bdd::node_handle f = src.apply_or(
      src.apply_and(src.var(0), src.nvar(2)),
      src.apply_xor(src.var(1), src.var(3)));
  bdd::manager dst(4);
  const bdd::node_handle g = bdd::transfer(src, f, dst);
  for (int bits = 0; bits < 16; ++bits) {
    std::vector<bool> a(4);
    for (int v = 0; v < 4; ++v) a[static_cast<std::size_t>(v)] = (bits >> v) & 1;
    EXPECT_EQ(src.evaluate(f, a), dst.evaluate(g, a)) << "bits " << bits;
  }
}

TEST(TransferTest, ConstantsMapToConstants) {
  bdd::manager src(2);
  bdd::manager dst(5);
  EXPECT_EQ(bdd::transfer(src, src.constant(false), dst), bdd::false_handle);
  EXPECT_EQ(bdd::transfer(src, src.constant(true), dst), bdd::true_handle);
}

TEST(TransferTest, RefusesNarrowDestination) {
  bdd::manager src(4);
  bdd::manager dst(2);
  EXPECT_THROW((void)bdd::transfer(src, src.var(3), dst), error);
}

TEST(TransferTest, FindSatisfyingWitnessesSatisfiableFunctions) {
  bdd::manager m(3);
  EXPECT_FALSE(bdd::find_satisfying(m, m.constant(false)).has_value());

  const bdd::node_handle f = m.apply_and(m.nvar(0), m.var(2));
  const auto witness = bdd::find_satisfying(m, f);
  ASSERT_TRUE(witness.has_value());
  ASSERT_EQ(witness->size(), 3u);
  EXPECT_TRUE(m.evaluate(f, *witness));
}

// --- sneak-path extraction --------------------------------------------------

TEST(ExtractTest, AgreesWithPathEvaluationEverywhere) {
  const synthesized s(frontend::make_comparator(3));  // 6 variables
  const xbar::crossbar& design = s.ctx.mapped->design;
  bdd::manager scratch(s.net.input_count());
  const xbar::extraction_result extracted =
      xbar::extract_sneak_functions(design, scratch);

  const int n = s.net.input_count();
  for (int bits = 0; bits < (1 << n); ++bits) {
    std::vector<bool> a(static_cast<std::size_t>(n));
    for (int v = 0; v < n; ++v) a[static_cast<std::size_t>(v)] = (bits >> v) & 1;
    const std::vector<bool> reach = xbar::reachable_rows(design, a);
    for (int r = 0; r < design.rows(); ++r)
      EXPECT_EQ(scratch.evaluate(
                    extracted.row_function[static_cast<std::size_t>(r)], a),
                reach[static_cast<std::size_t>(r)])
          << "row " << r << " bits " << bits;
  }
}

TEST(ExtractTest, SymbolicEquivalencePassesOnSynthesizedDesigns) {
  for (auto make : {frontend::make_mux_tree(2), frontend::make_parity(6),
                    frontend::make_decoder(3)}) {
    const synthesized s(std::move(make));
    const xbar::equivalence_report eq = xbar::check_symbolic_equivalence(
        s.ctx.mapped->design, s.m, s.built.roots, s.built.names);
    EXPECT_TRUE(eq.equivalent) << s.net.name();
    EXPECT_GT(eq.fixpoint_iterations, 0);
  }
}

TEST(ExtractTest, MismatchYieldsCounterexample) {
  const synthesized s(frontend::make_parity(5));
  xbar::crossbar broken = s.ctx.mapped->design;
  bool flipped = false;
  for (int r = 0; r < broken.rows() && !flipped; ++r)
    for (int c = 0; c < broken.columns() && !flipped; ++c) {
      const xbar::device d = broken.at(r, c);
      if (d.kind == xbar::literal_kind::positive) {
        broken.set(r, c, {xbar::literal_kind::negative, d.variable});
        flipped = true;
      }
    }
  ASSERT_TRUE(flipped);

  const xbar::equivalence_report eq = xbar::check_symbolic_equivalence(
      broken, s.m, s.built.roots, s.built.names);
  EXPECT_FALSE(eq.equivalent);
  bool witnessed = false;
  for (const xbar::output_equivalence& o : eq.outputs) {
    if (o.equivalent || o.counterexample.empty()) continue;
    witnessed = true;
    // The witness must actually separate design from spec.
    const std::vector<bool> reach =
        xbar::reachable_rows(broken, o.counterexample);
    for (std::size_t i = 0; i < s.built.names.size(); ++i) {
      if (s.built.names[i] != o.name) continue;
      bool got = false;
      for (const xbar::output_port& port : broken.outputs())
        if (port.name == o.name)
          got = reach[static_cast<std::size_t>(port.row)];
      EXPECT_NE(got, s.m.evaluate(s.built.roots[i], o.counterexample));
    }
  }
  EXPECT_TRUE(witnessed);
}

/// The acceptance bar: symbolic equivalence and exhaustive validation agree
/// on every <= 16-variable design, pristine or corrupted.
TEST(ExtractTest, AgreesWithExhaustiveValidation) {
  for (auto make :
       {frontend::make_comparator(4), frontend::make_ripple_adder(3),
        frontend::make_priority_encoder(8), frontend::make_multiplier(3)}) {
    const synthesized s(std::move(make));
    ASSERT_LE(s.net.input_count(), 16);

    const auto agree = [&](const xbar::crossbar& design) {
      const oracle::exhaustive_verdict exhaustive =
          oracle::exhaustive_validation(design, s.m, s.built.roots,
                                        s.built.names, s.net.input_count());
      const xbar::equivalence_report eq = xbar::check_symbolic_equivalence(
          design, s.m, s.built.roots, s.built.names);
      EXPECT_EQ(exhaustive.valid, eq.equivalent) << s.net.name();
    };

    agree(s.ctx.mapped->design);  // pristine: both must pass

    xbar::crossbar broken = s.ctx.mapped->design;  // corrupted: both must fail
    bool dropped = false;
    for (int r = 0; r < broken.rows() && !dropped; ++r)
      for (int c = 0; c < broken.columns() && !dropped; ++c)
        if (broken.at(r, c).kind == xbar::literal_kind::positive) {
          broken.set(r, c, {xbar::literal_kind::off, -1});
          dropped = true;
        }
    ASSERT_TRUE(dropped);
    agree(broken);
  }
}

// --- check registry ---------------------------------------------------------

TEST(RegistryTest, ChecksAreSortedAndUnique) {
  const std::vector<check_descriptor>& checks = all_checks();
  ASSERT_GE(checks.size(), 10u);
  for (std::size_t i = 1; i < checks.size(); ++i)
    EXPECT_LT(checks[i - 1].id, checks[i].id);
  for (const check_descriptor& c : checks) {
    EXPECT_FALSE(c.name.empty()) << c.id;
    EXPECT_FALSE(c.description.empty()) << c.id;
  }
  EXPECT_EQ(find_check("LBL001").name, "labeling-feasibility");
  EXPECT_THROW((void)find_check("NOPE42"), error);
}

TEST(RegistryTest, ResolveVariableCountFallsBackToDevices) {
  artifacts a;
  EXPECT_EQ(a.resolve_variable_count(), -1);

  xbar::crossbar x(2, 2);
  x.set_literal(0, 0, 5, true);
  a.design = &x;
  EXPECT_EQ(a.resolve_variable_count(), 6);  // inferred: max variable + 1

  bdd::manager m(9);
  a.spec = &m;
  EXPECT_EQ(a.resolve_variable_count(), 9);  // spec wins over inference

  a.variable_count = 3;
  EXPECT_EQ(a.resolve_variable_count(), 3);  // explicit wins over both
}

// --- the analyzer over real designs -----------------------------------------

TEST(AnalyzerTest, SynthesizedDesignsLintClean) {
  // Every output constant: the design keeps only its bare input wordline.
  std::istringstream constants(
      ".model constants\n.inputs a b c\n.outputs z o\n"
      ".names a z\n.names o\n1\n.end\n");
  for (auto make : {frontend::make_comparator(4), frontend::make_decoder(3),
                    frontend::make_ripple_adder(4),
                    frontend::parse_blif(constants)}) {
    const synthesized s(std::move(make));
    const report r = analyze(s.art());
    EXPECT_TRUE(r.clean()) << s.net.name();
    // All four families must actually have run on full artifacts.
    const std::vector<std::string>& ran = r.checks_run();
    for (const char* id : {"LBL001", "XBR001", "MAP001", "EQV001"})
      EXPECT_NE(std::find(ran.begin(), ran.end(), id), ran.end()) << id;
  }
}

TEST(AnalyzerTest, OptionsDisableChecksAndEquivalence) {
  const synthesized s(frontend::make_parity(4));

  analyzer_options no_eqv;
  no_eqv.equivalence = false;
  const report without = analyze(s.art(), no_eqv);
  for (const std::string& id : without.checks_run())
    EXPECT_NE(id.substr(0, 3), "EQV") << id;

  analyzer_options disabled;
  disabled.disabled = {"XBR005"};
  const report r = analyze(s.art(), disabled);
  const std::vector<std::string>& ran = r.checks_run();
  EXPECT_EQ(std::find(ran.begin(), ran.end(), "XBR005"), ran.end());
}

TEST(AnalyzerTest, ChecksAreSkippedWithoutTheirArtifacts) {
  const synthesized s(frontend::make_parity(4));
  artifacts only_design;
  only_design.design = &s.ctx.mapped->design;
  const report r = analyze(only_design);
  for (const std::string& id : r.checks_run()) {
    EXPECT_NE(id.substr(0, 3), "LBL") << id;
    EXPECT_NE(id.substr(0, 3), "MAP") << id;
    EXPECT_NE(id.substr(0, 3), "EQV") << id;
  }
  EXPECT_TRUE(r.clean());
}

// --- targeted corruptions: each check catches its own bug -------------------

TEST(ChecksTest, FeasibilityCatchesVVEdges) {
  const synthesized s(frontend::make_parity(4));
  core::labeling broken = s.ctx.labels;
  // Force both endpoints of some edge to V.
  const graph::edge e = s.ctx.graph.g.edges().front();
  broken.label_of[static_cast<std::size_t>(e.u)] = core::vh_label::v;
  broken.label_of[static_cast<std::size_t>(e.v)] = core::vh_label::v;

  artifacts a = s.art();
  a.labels = &broken;
  const report r = analyze(a);
  EXPECT_TRUE(r.has_check("LBL001"));
}

TEST(ChecksTest, AlignmentCatchesVLabeledRoots) {
  const synthesized s(frontend::make_decoder(2));
  core::labeling broken = s.ctx.labels;
  const graph::node_id root = s.ctx.graph.outputs.front().node;
  broken.label_of[static_cast<std::size_t>(root)] = core::vh_label::v;

  artifacts a = s.art();
  a.labels = &broken;
  const report r = analyze(a);
  EXPECT_TRUE(r.has_check("LBL002"));
}

TEST(ChecksTest, SizeAccountingCatchesDimensionDrift) {
  const synthesized s(frontend::make_parity(6));  // its labeling has VH nodes
  core::labeling broken = s.ctx.labels;
  // Turn a VH node into H: k drops by one, so the crossbar's S = n + k
  // accounting no longer holds (and the dimension check fires too).
  bool changed = false;
  for (core::vh_label& l : broken.label_of)
    if (!changed && l == core::vh_label::vh) {
      l = core::vh_label::h;
      changed = true;
    }
  ASSERT_TRUE(changed);

  artifacts a = s.art();
  a.labels = &broken;
  const report r = analyze(a);
  EXPECT_TRUE(r.has_check("LBL003") || r.has_check("XBR004"));
}

TEST(ChecksTest, LabelingSizeMismatchIsItsOwnFinding) {
  const synthesized s(frontend::make_parity(4));
  core::labeling broken = s.ctx.labels;
  broken.label_of.pop_back();
  artifacts a = s.art();
  a.labels = &broken;
  const report r = analyze(a);
  EXPECT_TRUE(r.has_check("LBL004"));
}

TEST(ChecksTest, StructureCatchesDeadRowsAndDanglingColumns) {
  const synthesized s(frontend::make_mux_tree(2));
  xbar::crossbar broken = s.ctx.mapped->design;
  // Blank out a sensed output row: its output is stuck at 0.
  const int row = broken.outputs().front().row;
  for (int c = 0; c < broken.columns(); ++c)
    broken.set(row, c, {xbar::literal_kind::off, -1});

  artifacts a;
  a.design = &broken;
  const report r = analyze(a);
  EXPECT_TRUE(r.has_check("XBR001"));
  EXPECT_FALSE(r.clean());
}

TEST(ChecksTest, StructureCatchesVariableRangeAndDuplicatePorts) {
  xbar::crossbar x(3, 2);
  x.set_input_row(2);
  x.set_literal(0, 0, 7, true);  // only variable: inferred count is 8
  x.set_literal(2, 0, 7, false);
  x.set_literal(0, 1, 3, true);
  x.set_literal(2, 1, 3, false);
  x.add_output(0, "f");
  x.add_output(0, "f");  // duplicate name

  artifacts a;
  a.design = &x;
  a.variable_count = 4;  // declares x7 out of range
  const report r = analyze(a);
  EXPECT_TRUE(r.has_check("XBR006"));
  EXPECT_TRUE(r.has_check("XBR007"));
}

TEST(ChecksTest, MappingCatchesRetargetedJunctions) {
  const synthesized s(frontend::make_comparator(3));
  xbar::crossbar broken = s.ctx.mapped->design;
  bool retargeted = false;
  for (int r = 0; r < broken.rows() && !retargeted; ++r)
    for (int c = 0; c < broken.columns() && !retargeted; ++c) {
      const xbar::device d = broken.at(r, c);
      if (d.kind == xbar::literal_kind::positive) {
        broken.set(r, c,
                   {d.kind, (d.variable + 1) % s.net.input_count()});
        retargeted = true;
      }
    }
  ASSERT_TRUE(retargeted);

  artifacts a = s.art();
  a.design = &broken;
  const report r = analyze(a);
  EXPECT_TRUE(r.has_check("MAP002"));
}

TEST(ChecksTest, MappingCatchesDroppedBridges) {
  const synthesized s(frontend::make_parity(6));
  xbar::crossbar broken = s.ctx.mapped->design;
  bool dropped = false;
  for (int r = 0; r < broken.rows() && !dropped; ++r)
    for (int c = 0; c < broken.columns() && !dropped; ++c)
      if (broken.at(r, c).kind == xbar::literal_kind::on) {
        broken.set(r, c, {xbar::literal_kind::off, -1});
        dropped = true;
      }
  ASSERT_TRUE(dropped);

  artifacts a = s.art();
  a.design = &broken;
  const report r = analyze(a);
  EXPECT_TRUE(r.has_check("MAP003"));
}

TEST(ChecksTest, EquivalenceCatchesMissingAndExtraOutputs) {
  const synthesized s(frontend::make_decoder(2));
  xbar::crossbar renamed = s.ctx.mapped->design;
  // A design whose ports don't match the spec: rebuild with one output
  // renamed. add_output appends, so build a fresh copy.
  xbar::crossbar fresh(renamed.rows(), renamed.columns());
  for (int r = 0; r < renamed.rows(); ++r)
    for (int c = 0; c < renamed.columns(); ++c)
      fresh.set(r, c, renamed.at(r, c));
  fresh.set_input_row(renamed.input_row());
  for (std::size_t i = 0; i < renamed.outputs().size(); ++i) {
    const xbar::output_port& port = renamed.outputs()[i];
    fresh.add_output(port.row, i == 0 ? "imposter" : port.name);
  }

  artifacts a;
  a.design = &fresh;
  a.spec = &s.m;
  a.spec_roots = &s.built.roots;
  a.spec_names = &s.built.names;
  const report r = analyze(a);
  EXPECT_TRUE(r.has_check("EQV002"));  // the renamed spec output is missing
  EXPECT_TRUE(r.has_check("EQV003"));  // 'imposter' is not in the spec
}

TEST(ChecksTest, EquivalenceReadsAVerdictTheCallerAlreadyHas) {
  // The API's validate pass hands its verdict to the verify pass through
  // the analysis cache: EQV001 reports the same findings from it, and the
  // design is not extracted a second time.
  const synthesized s(frontend::make_ripple_adder(3));
  xbar::crossbar broken = s.ctx.mapped->design;
  bool dropped = false;
  for (int r = 0; r < broken.rows() && !dropped; ++r)
    for (int c = 0; c < broken.columns() && !dropped; ++c)
      if (broken.at(r, c).kind == xbar::literal_kind::positive) {
        broken.set(r, c, {xbar::literal_kind::off, -1});
        dropped = true;
      }
  ASSERT_TRUE(dropped);
  artifacts a;
  a.design = &broken;
  a.spec = &s.m;
  a.spec_roots = &s.built.roots;
  a.spec_names = &s.built.names;
  const auto findings = [](const report& r) {
    std::string text;
    for (const diagnostic& d : r.diagnostics())
      text += d.check_id + ": " + d.message + " / " + d.fix + "\n";
    return text;
  };
  const report extracted = analyze(a);
  ASSERT_TRUE(extracted.has_check("EQV001"));

  analysis_cache cache;
  cache.equivalence = xbar::validate(broken, s.m, s.built.roots,
                                     s.built.names, s.net.input_count());
  a.cache = &cache;
  set_metrics_enabled(true);
  const metric_counter& extractions =
      global_metrics().counter("verify.extractions");
  const std::uint64_t before = extractions.value();
  const report reused = analyze(a);
  const std::uint64_t during = extractions.value() - before;
  set_metrics_enabled(false);
  EXPECT_EQ(during, 0u);
  EXPECT_EQ(findings(reused), findings(extracted));
  EXPECT_EQ(reused.checks_run(), extracted.checks_run());
}

}  // namespace
}  // namespace compact::verify
