// milp/presolve: the reductions must preserve the feasible region exactly —
// tightened bounds are implied, fixed variables fold into right-hand sides
// with indexing preserved, redundant rows constrain nothing — and solve_mip
// must answer identically with presolve on or off.
#include <gtest/gtest.h>

#include <cmath>

#include "milp/branch_and_bound.hpp"
#include "milp/presolve.hpp"
#include "util/rng.hpp"

namespace compact::milp {
namespace {

TEST(PresolveTest, TightensImpliedBounds) {
  model m;
  const int x = m.add_variable(0.0, 10.0, 1.0, true, "x");
  const int y = m.add_variable(0.0, 10.0, 1.0, true, "y");
  m.add_constraint({{x, 1.0}, {y, 1.0}}, relation::less_equal, 3.0);
  const presolve_result r = presolve_model(m);
  ASSERT_FALSE(r.stats.proved_infeasible);
  EXPECT_GT(r.stats.bounds_tightened, 0u);
  EXPECT_LE(r.reduced.var(x).upper, 3.0);
  EXPECT_LE(r.reduced.var(y).upper, 3.0);
}

TEST(PresolveTest, IntegerBoundsRoundInward) {
  model m;
  const int x = m.add_variable(0.0, 10.0, 1.0, true, "x");
  m.add_constraint({{x, 2.0}}, relation::less_equal, 5.0);  // x <= 2.5 -> 2
  const presolve_result r = presolve_model(m);
  ASSERT_FALSE(r.stats.proved_infeasible);
  EXPECT_DOUBLE_EQ(r.reduced.var(x).upper, 2.0);
}

TEST(PresolveTest, SubstitutesFixedVariablesPreservingIndices) {
  model m;
  const int x = m.add_variable(2.0, 2.0, 1.0, false, "x");  // fixed
  const int y = m.add_variable(0.0, 10.0, 1.0, false, "y");
  m.add_constraint({{x, 1.0}, {y, 1.0}}, relation::less_equal, 5.0);
  const presolve_result r = presolve_model(m);
  ASSERT_FALSE(r.stats.proved_infeasible);
  EXPECT_EQ(r.stats.variables_fixed, 1u);
  // Indexing is preserved: same variable count, y still at its index.
  EXPECT_EQ(r.reduced.variable_count(), m.variable_count());
  // The substitution implies y <= 3 (as a bound or a surviving 1-term row).
  EXPECT_LE(r.reduced.var(y).upper, 3.0 + 1e-9);
  // x no longer appears in any constraint.
  for (const constraint& c : r.reduced.constraints())
    for (const linear_term& t : c.terms) EXPECT_NE(t.variable, x);
}

TEST(PresolveTest, DropsRedundantRows) {
  model m;
  const int x = m.add_binary(1.0, "x");
  m.add_constraint({{x, 1.0}}, relation::less_equal, 10.0);  // implied by 0/1
  const presolve_result r = presolve_model(m);
  ASSERT_FALSE(r.stats.proved_infeasible);
  EXPECT_EQ(r.stats.rows_removed, 1u);
  EXPECT_EQ(r.reduced.constraint_count(), 0u);
}

TEST(PresolveTest, DropsZeroCoefficientTerms) {
  model m;
  const int x = m.add_binary(1.0, "x");
  const int y = m.add_binary(1.0, "y");
  m.add_constraint({{x, 0.0}, {y, 1.0}}, relation::greater_equal, 1.0);
  const presolve_result r = presolve_model(m);
  ASSERT_FALSE(r.stats.proved_infeasible);
  EXPECT_GT(r.stats.terms_removed, 0u);
}

TEST(PresolveTest, ProvesActivityInfeasibility) {
  model m;
  const int x = m.add_binary(1.0, "x");
  m.add_constraint({{x, 1.0}}, relation::greater_equal, 5.0);  // max is 1
  const presolve_result r = presolve_model(m);
  EXPECT_TRUE(r.stats.proved_infeasible);
}

TEST(PresolveTest, ProvesBoundCrossInfeasibility) {
  model m;
  const int x = m.add_variable(0.0, 4.0, 1.0, false, "x");
  const int y = m.add_variable(3.0, 10.0, 1.0, false, "y");
  // y <= x - 5 with x <= 4 forces y <= -1 < 3.
  m.add_constraint({{y, 1.0}, {x, -1.0}}, relation::less_equal, -5.0);
  const presolve_result r = presolve_model(m);
  EXPECT_TRUE(r.stats.proved_infeasible);
}

TEST(PresolveTest, EmptiedRowStillChecksItsRhs) {
  model m;
  const int x = m.add_variable(1.0, 1.0, 0.0, false, "x");  // fixed to 1
  m.add_constraint({{x, 1.0}}, relation::less_equal, 0.0);  // 1 <= 0: never
  const presolve_result r = presolve_model(m);
  EXPECT_TRUE(r.stats.proved_infeasible);
}

TEST(PresolveTest, SolveMipAgreesWithAndWithoutPresolve) {
  rng random(99);
  for (int trial = 0; trial < 12; ++trial) {
    model m;
    const int n = 4 + static_cast<int>(random.next_below(3));
    for (int j = 0; j < n; ++j) {
      const double c =
          static_cast<double>(random.next_below(11)) - 5.0;  // [-5, 5]
      m.add_binary(c, std::string("x").append(std::to_string(j)));
    }
    const int rows = 2 + static_cast<int>(random.next_below(3));
    for (int r = 0; r < rows; ++r) {
      std::vector<linear_term> terms;
      for (int j = 0; j < n; ++j)
        if (random.next_below(100) < 60)
          terms.push_back(
              {j, static_cast<double>(random.next_below(7)) - 3.0});
      if (terms.empty()) continue;
      const relation rel =
          random.next_bool() ? relation::less_equal : relation::greater_equal;
      const double rhs = static_cast<double>(random.next_below(9)) - 4.0;
      m.add_constraint(std::move(terms), rel, rhs);
    }

    mip_options with, without;
    with.presolve = true;
    without.presolve = false;
    const mip_result a = solve_mip(m, with);
    const mip_result b = solve_mip(m, without);
    EXPECT_EQ(a.status, b.status) << "trial " << trial;
    if (a.status == mip_status::optimal && b.status == mip_status::optimal) {
      EXPECT_NEAR(a.objective, b.objective, 1e-6) << "trial " << trial;
    }
  }
}

TEST(PresolveTest, WarmStartSurvivesPresolve) {
  model m;
  const int x = m.add_binary(-2.0, "x");
  const int y = m.add_binary(-1.0, "y");
  m.add_constraint({{x, 1.0}, {y, 1.0}}, relation::less_equal, 1.0);
  mip_options options;
  options.presolve = true;
  options.warm_start = std::vector<double>{0.0, 1.0};  // feasible, obj -1
  const mip_result r = solve_mip(m, options);
  EXPECT_EQ(r.status, mip_status::optimal);
  EXPECT_NEAR(r.objective, -2.0, 1e-9);  // x=1, y=0 beats the warm start
  ASSERT_EQ(r.x.size(), 2u);
  EXPECT_NEAR(r.x[static_cast<std::size_t>(x)], 1.0, 1e-9);
  EXPECT_NEAR(r.x[static_cast<std::size_t>(y)], 0.0, 1e-9);
}

}  // namespace
}  // namespace compact::milp
