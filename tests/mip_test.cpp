#include <gtest/gtest.h>

#include <cmath>

#include "milp/branch_and_bound.hpp"
#include "milp/presolve.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace compact::milp {
namespace {

TEST(MipTest, PureLpPassesThrough) {
  model m;
  const int x = m.add_continuous(1.0, "x");
  m.add_constraint({{x, 1.0}}, relation::greater_equal, 2.5);
  const mip_result r = solve_mip(m);
  ASSERT_EQ(r.status, mip_status::optimal);
  EXPECT_NEAR(r.objective, 2.5, 1e-6);
}

TEST(MipTest, SimpleKnapsack) {
  // max 5a + 4b + 3c s.t. 2a + 3b + c <= 3, binaries.
  // Best: a + c = weight 3, value 8.
  model m;
  const int a = m.add_binary(-5.0, "a");
  const int b = m.add_binary(-4.0, "b");
  const int c = m.add_binary(-3.0, "c");
  m.add_constraint({{a, 2.0}, {b, 3.0}, {c, 1.0}}, relation::less_equal, 3.0);
  const mip_result r = solve_mip(m);
  ASSERT_EQ(r.status, mip_status::optimal);
  EXPECT_NEAR(r.objective, -8.0, 1e-6);
  EXPECT_NEAR(r.x[0], 1.0, 1e-6);
  EXPECT_NEAR(r.x[1], 0.0, 1e-6);
  EXPECT_NEAR(r.x[2], 1.0, 1e-6);
}

TEST(MipTest, IntegralityForcesRounding) {
  // min x s.t. 2x >= 3, x integer in [0, 5] -> x = 2 (LP gives 1.5).
  model m;
  const int x = m.add_variable(0.0, 5.0, 1.0, true, "x");
  m.add_constraint({{x, 2.0}}, relation::greater_equal, 3.0);
  const mip_result r = solve_mip(m);
  ASSERT_EQ(r.status, mip_status::optimal);
  EXPECT_NEAR(r.objective, 2.0, 1e-6);
}

TEST(MipTest, InfeasibleModel) {
  model m;
  const int x = m.add_binary(1.0, "x");
  const int y = m.add_binary(1.0, "y");
  m.add_constraint({{x, 1.0}, {y, 1.0}}, relation::greater_equal, 3.0);
  EXPECT_EQ(solve_mip(m).status, mip_status::infeasible);
}

TEST(MipTest, WarmStartAccepted) {
  model m;
  const int x = m.add_binary(1.0, "x");
  const int y = m.add_binary(1.0, "y");
  m.add_constraint({{x, 1.0}, {y, 1.0}}, relation::greater_equal, 1.0);
  mip_options options;
  options.warm_start = std::vector<double>{1.0, 1.0};  // feasible, obj 2
  const mip_result r = solve_mip(m, options);
  ASSERT_EQ(r.status, mip_status::optimal);
  EXPECT_NEAR(r.objective, 1.0, 1e-6);  // improves past the warm start
}

// A warm start the root LP already proves optimal ends the search at the
// root like any other node: the root is pruned after its LP, so no
// strong-branching probe and no dive runs.
TEST(MipTest, RootLpProvingTheWarmStartExploresOneNode) {
  // Vertex cover of a 5-cycle: the LP optimum is x = 1/2 everywhere (2.5),
  // which the unit lattice rounds up to the warm start's 3.
  model m;
  for (int i = 0; i < 5; ++i) m.add_binary(1.0, "");
  for (int i = 0; i < 5; ++i)
    m.add_constraint({{i, 1.0}, {(i + 1) % 5, 1.0}}, relation::greater_equal,
                     1.0);
  mip_options options;
  options.objective_lattice = 1.0;
  const std::vector<double> warm = {1.0, 0.0, 1.0, 0.0, 1.0};
  options.warm_start = warm;

  // The root LP exactly as the search solves it: cold, on the presolved
  // model.
  lp_engine root(make_lp_matrix(presolve_model(m).reduced));
  const lp_result root_lp = root.solve(options.lp);
  ASSERT_EQ(root_lp.status, lp_status::optimal);
  ASSERT_NEAR(root_lp.objective, 2.5, 1e-9);

  const bool was_enabled = metrics_enabled();
  set_metrics_enabled(true);
  metric_counter& lp = global_metrics().counter("milp.bnb.lp_iterations");
  metric_counter& dive =
      global_metrics().counter("milp.bnb.dive_lp_iterations");
  const std::uint64_t lp_before = lp.value();
  const std::uint64_t dive_before = dive.value();
  const mip_result r = solve_mip(m, options);
  const std::uint64_t lp_spent = lp.value() - lp_before;
  const std::uint64_t dive_spent = dive.value() - dive_before;
  set_metrics_enabled(was_enabled);

  ASSERT_EQ(r.status, mip_status::optimal);
  EXPECT_EQ(r.x, warm);
  EXPECT_EQ(r.nodes_explored, 1);
  EXPECT_EQ(lp_spent, static_cast<std::uint64_t>(root_lp.iterations));
  EXPECT_EQ(dive_spent, 0u);
}

TEST(MipTest, BadWarmStartThrows) {
  model m;
  const int x = m.add_binary(1.0, "x");
  m.add_constraint({{x, 1.0}}, relation::greater_equal, 1.0);
  mip_options options;
  options.warm_start = std::vector<double>{0.0};
  EXPECT_THROW((void)solve_mip(m, options), compact::error);
}

TEST(MipTest, TraceIsMonotone) {
  // A small set-cover-ish instance that needs some branching.
  model m;
  rng random(13);
  const int n = 12;
  for (int i = 0; i < n; ++i)
    m.add_binary(1.0 + 0.01 * static_cast<double>(i), "x");
  for (int c = 0; c < 14; ++c) {
    std::vector<linear_term> terms;
    for (int i = 0; i < n; ++i)
      if (random.next_below(3) == 0) terms.push_back({i, 1.0});
    if (terms.size() < 2) terms.push_back({static_cast<int>(c % n), 1.0});
    m.add_constraint(terms, relation::greater_equal, 1.0);
  }
  // Milestones arrive through the on_trace event callback.
  std::vector<mip_trace_entry> trace;
  mip_options options;
  options.on_trace = [&trace](const mip_trace_entry& e) {
    trace.push_back(e);
  };
  const mip_result r = solve_mip(m, options);
  ASSERT_TRUE(r.status == mip_status::optimal ||
              r.status == mip_status::feasible);
  ASSERT_FALSE(trace.empty());
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_LE(trace[i].best_integer, trace[i - 1].best_integer + 1e-9);
    EXPECT_GE(trace[i].seconds, trace[i - 1].seconds);
  }
  // Bound never exceeds incumbent at termination.
  EXPECT_LE(r.best_bound, r.objective + 1e-6);
  if (r.status == mip_status::optimal) {
    EXPECT_LE(r.relative_gap, 1e-6);
  }
}

TEST(MipTest, RandomBinaryProgramsMatchBruteForce) {
  rng random(7);
  rng pick(11);  // warm-start choices; keeps `random`'s instances as they were
  for (int t = 0; t < 15; ++t) {
    model m;
    const int n = 2 + static_cast<int>(random.next_below(6));  // up to 7
    std::vector<double> cost(static_cast<std::size_t>(n));
    for (int j = 0; j < n; ++j) {
      cost[static_cast<std::size_t>(j)] = random.next_double() * 4.0 - 2.0;
      m.add_binary(cost[static_cast<std::size_t>(j)], "");
    }
    const int rows = 1 + static_cast<int>(random.next_below(4));
    std::vector<std::vector<double>> a(
        static_cast<std::size_t>(rows),
        std::vector<double>(static_cast<std::size_t>(n)));
    std::vector<double> rhs(static_cast<std::size_t>(rows));
    for (int i = 0; i < rows; ++i) {
      std::vector<linear_term> terms;
      for (int j = 0; j < n; ++j) {
        a[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
            std::floor(random.next_double() * 5.0) - 1.0;
        if (a[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] != 0.0)
          terms.push_back(
              {j, a[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]});
      }
      rhs[static_cast<std::size_t>(i)] = std::floor(random.next_double() * 4.0);
      if (terms.empty()) terms.push_back({0, 0.0});
      m.add_constraint(terms, relation::less_equal,
                       rhs[static_cast<std::size_t>(i)]);
    }

    // Brute force.
    double best = 1e18;
    int best_mask = -1;
    std::vector<int> feasible_masks;
    for (int mask = 0; mask < (1 << n); ++mask) {
      bool feasible = true;
      double obj = 0.0;
      for (int i = 0; i < rows && feasible; ++i) {
        double lhs = 0.0;
        for (int j = 0; j < n; ++j)
          if (mask & (1 << j))
            lhs += a[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
        if (lhs > rhs[static_cast<std::size_t>(i)] + 1e-9) feasible = false;
      }
      if (!feasible) continue;
      for (int j = 0; j < n; ++j)
        if (mask & (1 << j)) obj += cost[static_cast<std::size_t>(j)];
      feasible_masks.push_back(mask);
      if (obj < best) {
        best = obj;
        best_mask = mask;
      }
    }

    const mip_result r = solve_mip(m);
    if (best > 1e17) {
      EXPECT_EQ(r.status, mip_status::infeasible) << "trial " << t;
      continue;
    }
    ASSERT_EQ(r.status, mip_status::optimal) << "trial " << t;
    EXPECT_NEAR(r.objective, best, 1e-6) << "trial " << t;
    EXPECT_TRUE(m.is_feasible(r.x));

    // Warm-started pass: a random feasible point, the optimum itself every
    // third trial, becomes the incumbent that every node (the root
    // included) and every dive is cut off against.
    const int warm_mask =
        t % 3 == 0 ? best_mask
                   : feasible_masks[static_cast<std::size_t>(
                         pick.next_below(feasible_masks.size()))];
    std::vector<double> start(static_cast<std::size_t>(n), 0.0);
    for (int j = 0; j < n; ++j)
      if (warm_mask & (1 << j)) start[static_cast<std::size_t>(j)] = 1.0;
    mip_options warm;
    warm.warm_start = std::move(start);
    const mip_result w = solve_mip(m, warm);
    ASSERT_EQ(w.status, mip_status::optimal) << "warm trial " << t;
    EXPECT_NEAR(w.objective, best, 1e-6) << "warm trial " << t;
    EXPECT_TRUE(m.is_feasible(w.x));
  }
}

TEST(MipTest, TimeLimitReturnsFeasibleWithGap) {
  // A deliberately tight time budget on a nontrivial instance: the solver
  // must still return the warm-start incumbent with a sane gap.
  model m;
  rng random(55);
  const int n = 30;
  for (int i = 0; i < n; ++i) m.add_binary(1.0, "");
  for (int c = 0; c < 60; ++c) {
    std::vector<linear_term> terms;
    for (int i = 0; i < n; ++i)
      if (random.next_below(4) == 0) terms.push_back({i, 1.0});
    if (terms.empty()) terms.push_back({0, 1.0});
    m.add_constraint(terms, relation::greater_equal, 1.0);
  }
  mip_options options;
  options.time_limit_seconds = 0.02;
  options.warm_start = std::vector<double>(static_cast<std::size_t>(n), 1.0);
  const mip_result r = solve_mip(m, options);
  ASSERT_TRUE(r.status == mip_status::optimal ||
              r.status == mip_status::feasible);
  EXPECT_GE(r.relative_gap, 0.0);
  EXPECT_LE(r.relative_gap, 1.0);
  EXPECT_TRUE(m.is_feasible(r.x));
}

TEST(MipTest, GapToleranceStopsEarly) {
  model m;
  const int x = m.add_binary(-1.0, "x");
  const int y = m.add_binary(-1.0, "y");
  m.add_constraint({{x, 1.0}, {y, 1.0}}, relation::less_equal, 1.0);
  mip_options options;
  options.gap_tolerance = 0.9;  // huge tolerance: accept anything close
  const mip_result r = solve_mip(m, options);
  EXPECT_TRUE(r.status == mip_status::optimal ||
              r.status == mip_status::feasible);
}

}  // namespace
}  // namespace compact::milp
