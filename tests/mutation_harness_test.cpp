// Mutation-kill self-test of the analyzer: every single-point corruption
// injected into a known-good design must trip at least one check. The
// acceptance bar is a 100% kill rate over >= 30 cases spanning label
// flips, bridge drops and literal mutations.
#include <gtest/gtest.h>

#include <set>

#include "core/pipeline.hpp"
#include "frontend/benchgen.hpp"
#include "frontend/to_bdd.hpp"
#include "verify/analyzer.hpp"
#include "verify/mutate.hpp"

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
    core::make_synthesis_pipeline().run(ctx);
  }

  [[nodiscard]] artifacts art() const { return make_artifacts(ctx); }
};

TEST(MutationHarnessTest, EnumerationCoversEveryKindDeterministically) {
  const synthesized s(frontend::make_comparator(4));
  const std::vector<mutation> first = enumerate_mutations(s.art(), 3);
  const std::vector<mutation> second = enumerate_mutations(s.art(), 3);
  ASSERT_EQ(first.size(), second.size());
  std::set<mutation_kind> kinds;
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(static_cast<int>(first[i].kind),
              static_cast<int>(second[i].kind));
    EXPECT_EQ(first[i].node, second[i].node);
    EXPECT_EQ(first[i].row, second[i].row);
    EXPECT_EQ(first[i].column, second[i].column);
    kinds.insert(first[i].kind);
  }
  EXPECT_EQ(kinds.size(), 5u) << "every mutation kind must be represented";
}

TEST(MutationHarnessTest, ApplyRejectsInapplicableMutations) {
  const synthesized s(frontend::make_parity(4));
  mutable_artifacts state;
  state.design = s.ctx.mapped->design;
  state.labels = s.ctx.labels;

  mutation bad;
  bad.kind = mutation_kind::bridge_drop;
  bad.row = 0;
  bad.column = 0;
  // Only applicable if (0, 0) really is a bridge.
  const bool applied = apply_mutation(s.art(), bad, state);
  EXPECT_EQ(applied,
            s.ctx.mapped->design.at(0, 0).kind == xbar::literal_kind::on);

  mutation out_of_range;
  out_of_range.kind = mutation_kind::literal_flip;
  out_of_range.row = state.design.rows() + 5;
  out_of_range.column = 0;
  EXPECT_FALSE(apply_mutation(s.art(), out_of_range, state));

  // connection_drop and ron_degrade need artifacts this run lacks.
  mutation drop;
  drop.kind = mutation_kind::connection_drop;
  drop.connection = 0;
  EXPECT_FALSE(apply_mutation(s.art(), drop, state));
  mutation degrade;
  degrade.kind = mutation_kind::ron_degrade;
  EXPECT_FALSE(apply_mutation(s.art(), degrade, state));
}

/// The acceptance criterion: >= 30 mutation cases across the required
/// classes, all killed.
TEST(MutationHarnessTest, FullKillAcrossTheSuite) {
  std::size_t total = 0;
  std::size_t killed = 0;
  for (auto make :
       {frontend::make_comparator(4), frontend::make_mux_tree(2),
        frontend::make_decoder(3), frontend::make_parity(6),
        frontend::make_ripple_adder(3), frontend::make_priority_encoder(6)}) {
    const synthesized s(std::move(make));
    const self_test_result result = run_self_test(s.art(), {}, 2);
    for (const self_test_outcome& o : result.outcomes)
      EXPECT_TRUE(o.killed) << s.net.name() << ": survived " << o.m.describe();
    total += result.total;
    killed += result.killed;
  }
  EXPECT_GE(total, 30u);
  EXPECT_EQ(killed, total);
}

TEST(MutationHarnessTest, NoisyBaselineGetsNoKillCredit) {
  const synthesized s(frontend::make_parity(4));
  // Pre-corrupt the design: the baseline now fires EQV001/MAP002 itself, so
  // mutations must be caught by a *new* check ID to count as killed. The
  // harness still reports its totals rather than crediting baseline noise.
  xbar::crossbar noisy = s.ctx.mapped->design;
  bool flipped = false;
  for (int r = 0; r < noisy.rows() && !flipped; ++r)
    for (int c = 0; c < noisy.columns() && !flipped; ++c) {
      const xbar::device d = noisy.at(r, c);
      if (d.kind == xbar::literal_kind::positive) {
        noisy.set(r, c, {xbar::literal_kind::negative, d.variable});
        flipped = true;
      }
    }
  ASSERT_TRUE(flipped);

  artifacts a = s.art();
  a.design = &noisy;
  const self_test_result result = run_self_test(a, {}, 1);
  EXPECT_GT(result.total, 0u);
  // Device mutations now only re-trigger checks the baseline already
  // fires; they must not be counted as killed by those same IDs.
  for (const self_test_outcome& o : result.outcomes)
    for (const std::string& id : o.triggered_checks)
      EXPECT_TRUE(id != "EQV001" || o.killed);
}

}  // namespace
}  // namespace compact::verify
