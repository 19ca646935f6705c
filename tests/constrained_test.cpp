// Section III's constrained formulation: fixed row/column budgets either
// yield a valid design or a proof of infeasibility.
#include <gtest/gtest.h>

#include "core/compact.hpp"
#include "frontend/benchgen.hpp"
#include "frontend/to_bdd.hpp"
#include "xbar/equivalence.hpp"

namespace compact::core {
namespace {

synthesis_options constrained(std::optional<int> rows,
                              std::optional<int> columns) {
  synthesis_options options;
  options.labeler = "mip";
  options.gamma = 0.5;
  options.time_limit_seconds = 10.0;
  options.max_rows = rows;
  options.max_columns = columns;
  return options;
}

TEST(ConstrainedTest, LooseBudgetsChangeNothing) {
  const frontend::network net = frontend::make_parity(5, 1);
  const synthesis_result unconstrained =
      synthesize(net, constrained(std::nullopt, std::nullopt));
  const synthesis_result loose = synthesize(
      net, constrained(1000, 1000));
  EXPECT_EQ(loose.stats.semiperimeter, unconstrained.stats.semiperimeter);
}

TEST(ConstrainedTest, TightRowBudgetIsHonored) {
  const frontend::network net = frontend::make_parity(5, 1);
  // First learn the natural row count, then demand one fewer... unless that
  // is already minimal; demand the natural count to at least verify the
  // constraint path and validity.
  const synthesis_result natural =
      synthesize(net, constrained(std::nullopt, std::nullopt));
  const int budget = natural.stats.rows + 1;
  const synthesis_result constrained_result =
      synthesize(net, constrained(budget, std::nullopt));
  EXPECT_LE(constrained_result.stats.rows, budget);

  bdd::manager m(net.input_count());
  const frontend::sbdd built = frontend::build_sbdd(net, m);
  const xbar::equivalence_report report = xbar::validate(
      constrained_result.design, m, built.roots, built.names,
      net.input_count());
  EXPECT_TRUE(report.equivalent) << xbar::verdict_text(report);
}

TEST(ConstrainedTest, ImpossibleBudgetIsInfeasible) {
  // Fewer total nanowires than graph nodes can never fit: every node needs
  // at least one nanowire.
  const frontend::network net = frontend::make_parity(4, 1);
  EXPECT_THROW((void)synthesize(net, constrained(2, 2)),
               infeasible_error);
}

TEST(ConstrainedTest, RowBudgetBelowAlignedCountIsInfeasible) {
  // Outputs + terminal must all be wordlines: budget 1 row cannot work for
  // a 3-output function.
  const frontend::network net = frontend::make_comparator(2);
  EXPECT_THROW((void)synthesize(net, constrained(1, std::nullopt)),
               infeasible_error);
}

TEST(ConstrainedTest, OctMethodEnforcesBudgetsPostMap) {
  // The OCT objective ignores budgets while solving; the map pass enforces
  // them afterwards. Loose budgets change nothing, impossible budgets raise
  // a structured infeasibility naming the overflow dimension.
  const frontend::network net = frontend::make_parity(4, 1);
  synthesis_options loose = constrained(1000, 1000);
  loose.labeler = "oct";
  const synthesis_result fits = synthesize(net, loose);
  EXPECT_LE(fits.stats.rows, 1000);

  synthesis_options impossible = constrained(2, std::nullopt);
  impossible.labeler = "oct";
  try {
    (void)synthesize(net, impossible);
    FAIL() << "expected infeasible_error";
  } catch (const infeasible_error& e) {
    EXPECT_NE(std::string(e.what()).find("rows"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace compact::core
