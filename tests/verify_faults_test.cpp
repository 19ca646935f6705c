// Fault injection meets the static analyzer: for small designs, every
// injected stuck-at fault must either change the extracted sneak-path
// function (and raise an EQV001 diagnostic) or be provably masked (and
// raise no equivalence diagnostic at all). Exhaustive enumeration is the
// ground truth that pins both directions.
#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "frontend/benchgen.hpp"
#include "frontend/to_bdd.hpp"
#include "verify/analyzer.hpp"
#include "xbar/equivalence.hpp"
#include "xbar/faults.hpp"

#include "exhaustive_oracle.hpp"

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

/// Every fault that actually changes the device grid, skipping no-ops
/// (stuck_off on an off junction, stuck_on on an always-on bridge).
std::vector<xbar::fault> effective_faults(const xbar::crossbar& design) {
  std::vector<xbar::fault> faults;
  for (int r = 0; r < design.rows(); ++r)
    for (int c = 0; c < design.columns(); ++c) {
      const xbar::literal_kind kind = design.at(r, c).kind;
      if (kind != xbar::literal_kind::off)
        faults.push_back({r, c, xbar::fault_kind::stuck_off});
      if (kind != xbar::literal_kind::on)
        faults.push_back({r, c, xbar::fault_kind::stuck_on});
    }
  return faults;
}

TEST(VerifyFaultsTest, EveryStuckFaultIsDetectedOrProvablyMasked) {
  int detected = 0;
  int masked = 0;
  for (auto make : {frontend::make_comparator(3), frontend::make_mux_tree(2),
                    frontend::make_parity(5)}) {
    const synthesized s(std::move(make));
    const xbar::crossbar& design = s.ctx.mapped->design;
    ASSERT_LE(s.net.input_count(), 16);

    for (const xbar::fault& f : effective_faults(design)) {
      const xbar::crossbar faulty = xbar::inject_faults(design, {f});

      const oracle::exhaustive_verdict truth = oracle::exhaustive_validation(
          faulty, s.m, s.built.roots, s.built.names, s.net.input_count());

      const xbar::equivalence_report eq = xbar::check_symbolic_equivalence(
          faulty, s.m, s.built.roots, s.built.names);
      EXPECT_EQ(truth.valid, eq.equivalent)
          << s.net.name() << ": fault at (" << f.row << ", " << f.column
          << ") kind "
          << (f.kind == xbar::fault_kind::stuck_off ? "stuck_off"
                                                    : "stuck_on");

      // The analyzer's equivalence check must agree: a diagnostic exactly
      // when the fault is functionally visible, silence when it is masked.
      artifacts a;
      a.design = &faulty;
      a.spec = &s.m;
      a.spec_roots = &s.built.roots;
      a.spec_names = &s.built.names;
      const report r = analyze(a);
      EXPECT_EQ(r.has_check("EQV001"), !truth.valid)
          << s.net.name() << ": fault at (" << f.row << ", " << f.column
          << ")";
      (truth.valid ? masked : detected) += 1;
    }
  }
  // The scan must exercise both directions to mean anything. Dense designs
  // may have no masked faults at all, so the bar is over the whole suite.
  EXPECT_GT(detected, 0);
  EXPECT_GT(masked, 0);
}

TEST(VerifyFaultsTest, CriticalFaultsAreNeverEquivalent) {
  const synthesized s(frontend::make_comparator(3));
  const xbar::crossbar& design = s.ctx.mapped->design;
  const std::vector<xbar::fault> critical =
      xbar::critical_single_faults(design, s.net.input_count());
  ASSERT_FALSE(critical.empty());
  for (const xbar::fault& f : critical) {
    const xbar::crossbar faulty = xbar::inject_faults(design, {f});
    const xbar::equivalence_report eq = xbar::check_symbolic_equivalence(
        faulty, s.m, s.built.roots, s.built.names);
    EXPECT_FALSE(eq.equivalent)
        << "fault observed by sampling but symbolically equivalent at ("
        << f.row << ", " << f.column << ")";
  }
}

TEST(VerifyFaultsTest, StuckOnSneakPathsAreCaughtSymbolically) {
  // A stuck-on device on an unprogrammed junction can only *add* conducting
  // paths. When exhaustive ground truth says an output flipped to 1, the
  // witness produced symbolically must reproduce the sneak path.
  const synthesized s(frontend::make_parity(5));
  const xbar::crossbar& design = s.ctx.mapped->design;

  bool saw_sneak = false;
  for (int r = 0; r < design.rows() && !saw_sneak; ++r)
    for (int c = 0; c < design.columns() && !saw_sneak; ++c) {
      if (design.at(r, c).kind != xbar::literal_kind::off) continue;
      const xbar::fault f{r, c, xbar::fault_kind::stuck_on};
      const xbar::crossbar faulty = xbar::inject_faults(design, {f});
      const oracle::exhaustive_verdict truth = oracle::exhaustive_validation(
          faulty, s.m, s.built.roots, s.built.names, s.net.input_count());
      if (truth.valid) continue;
      const xbar::equivalence_report eq = xbar::check_symbolic_equivalence(
          faulty, s.m, s.built.roots, s.built.names);
      EXPECT_FALSE(eq.equivalent);
      for (const xbar::output_equivalence& o : eq.outputs) {
        if (o.found && !o.equivalent) {
          EXPECT_EQ(o.counterexample.size(),
                    static_cast<std::size_t>(s.net.input_count()));
        }
      }
      saw_sneak = true;
    }
  EXPECT_TRUE(saw_sneak) << "no stuck-on fault produced a sneak path";
}

}  // namespace
}  // namespace compact::verify
