// Parameterized property sweeps over randomly generated functions: the
// paper's validity definition (Section III) and the structural invariants of
// Section V/VI must hold for *every* function, not just the benchmarks.
#include <gtest/gtest.h>

#include "core/compact.hpp"
#include "core/labelers.hpp"
#include "core/mapping.hpp"
#include "util/rng.hpp"
#include "xbar/equivalence.hpp"

namespace compact {
namespace {

/// The prior-work staircase mapping [16]: the all-VH labeler.
core::synthesis_options staircase() {
  core::synthesis_options options;
  options.labeler = "staircase";
  return options;
}

/// Build a random multi-output function over `inputs` variables.
struct random_function {
  bdd::manager m;
  std::vector<bdd::node_handle> roots;
  std::vector<std::string> names;

  random_function(int inputs, int outputs, std::uint64_t seed)
      : m(inputs) {
    rng random(seed);
    for (int o = 0; o < outputs; ++o) {
      bdd::node_handle f = m.constant(false);
      const int cubes = 1 + static_cast<int>(random.next_below(5));
      for (int c = 0; c < cubes; ++c) {
        bdd::node_handle cube = m.constant(true);
        for (int v = 0; v < inputs; ++v) {
          const auto roll = random.next_below(3);
          if (roll == 0) cube = m.apply_and(cube, m.var(v));
          if (roll == 1) cube = m.apply_and(cube, m.nvar(v));
        }
        f = m.apply_or(f, cube);
      }
      roots.push_back(f);
      std::string name = "f";
      name += std::to_string(o);
      names.push_back(std::move(name));
    }
  }
};

struct sweep_params {
  int inputs;
  int outputs;
  std::uint64_t seed;
};

void PrintTo(const sweep_params& p, std::ostream* os) {
  *os << "inputs=" << p.inputs << " outputs=" << p.outputs
      << " seed=" << p.seed;
}

class ValiditySweep : public ::testing::TestWithParam<sweep_params> {};

TEST_P(ValiditySweep, OctMethodProducesValidDesign) {
  const auto [inputs, outputs, seed] = GetParam();
  random_function fn(inputs, outputs, seed);
  core::synthesis_options options;
  options.method = core::labeling_method::minimal_semiperimeter;
  const core::synthesis_result r =
      core::synthesize(fn.m, fn.roots, fn.names, options);
  const xbar::equivalence_report report = xbar::validate(
      r.design, fn.m, fn.roots, fn.names, inputs);
  EXPECT_TRUE(report.equivalent) << xbar::verdict_text(report);
}

TEST_P(ValiditySweep, MipMethodProducesValidDesign) {
  const auto [inputs, outputs, seed] = GetParam();
  random_function fn(inputs, outputs, seed);
  core::synthesis_options options;
  options.method = core::labeling_method::weighted_mip;
  options.time_limit_seconds = 5.0;
  const core::synthesis_result r =
      core::synthesize(fn.m, fn.roots, fn.names, options);
  const xbar::equivalence_report report = xbar::validate(
      r.design, fn.m, fn.roots, fn.names, inputs);
  EXPECT_TRUE(report.equivalent) << xbar::verdict_text(report);
}

TEST_P(ValiditySweep, StaircaseProducesValidDesign) {
  const auto [inputs, outputs, seed] = GetParam();
  random_function fn(inputs, outputs, seed);
  const core::synthesis_result r =
      core::synthesize(fn.m, fn.roots, fn.names, staircase());
  const xbar::equivalence_report report = xbar::validate(
      r.design, fn.m, fn.roots, fn.names, inputs);
  EXPECT_TRUE(report.equivalent) << xbar::verdict_text(report);
}

TEST_P(ValiditySweep, CompactNeverLargerThanStaircase) {
  const auto [inputs, outputs, seed] = GetParam();
  random_function fn(inputs, outputs, seed);
  core::synthesis_options options;
  options.method = core::labeling_method::minimal_semiperimeter;
  const core::synthesis_result flow =
      core::synthesize(fn.m, fn.roots, fn.names, options);
  const core::synthesis_result stair =
      core::synthesize(fn.m, fn.roots, fn.names, staircase());
  EXPECT_LE(flow.stats.semiperimeter, stair.stats.semiperimeter);
  EXPECT_LE(flow.stats.rows, stair.stats.rows);
}

TEST_P(ValiditySweep, LabelingInvariants) {
  const auto [inputs, outputs, seed] = GetParam();
  random_function fn(inputs, outputs, seed);
  const core::bdd_graph g = core::build_bdd_graph(fn.m, fn.roots, fn.names);
  if (g.g.node_count() == 0) return;  // constant function
  const core::oct_label_result r = core::label_minimal_semiperimeter(g);
  // Invariant 3 of DESIGN.md: feasibility, S = n + #VH, alignment.
  EXPECT_TRUE(core::is_feasible(g.g, r.l));
  EXPECT_TRUE(core::satisfies_alignment(g, r.l));
  const core::labeling_stats s = core::compute_stats(r.l);
  EXPECT_EQ(static_cast<std::size_t>(s.semiperimeter),
            g.g.node_count() + static_cast<std::size_t>(s.vh_count));
  EXPECT_EQ(s.max_dimension, std::max(s.rows, s.columns));
}

std::vector<sweep_params> make_sweep() {
  std::vector<sweep_params> params;
  std::uint64_t seed = 1000;
  for (int inputs : {2, 3, 4, 5, 6}) {
    for (int outputs : {1, 2, 3}) {
      params.push_back({inputs, outputs, seed});
      seed += 17;
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(RandomFunctions, ValiditySweep,
                         ::testing::ValuesIn(make_sweep()));

// --- adversarial mapping inputs -------------------------------------------

TEST(PropertyTest, DeepChainFunctions) {
  // AND chains of every length: near-path graphs.
  for (int n = 1; n <= 10; ++n) {
    bdd::manager m(n);
    bdd::node_handle f = m.constant(true);
    for (int v = 0; v < n; ++v) f = m.apply_and(f, m.var(v));
    core::synthesis_options options;
    options.method = core::labeling_method::minimal_semiperimeter;
    const core::synthesis_result r = core::synthesize(m, {f}, {"f"}, options);
    const xbar::equivalence_report report =
        xbar::validate(r.design, m, {f}, {"f"}, n);
    EXPECT_TRUE(report.equivalent)
        << "n=" << n << ": " << xbar::verdict_text(report);
  }
}

TEST(PropertyTest, ParityFunctions) {
  // Parity BDD graphs are grids of odd cycles: the worst case for the OCT.
  for (int n = 2; n <= 9; ++n) {
    bdd::manager m(n);
    bdd::node_handle f = m.var(0);
    for (int v = 1; v < n; ++v) f = m.apply_xor(f, m.var(v));
    core::synthesis_options options;
    options.method = core::labeling_method::minimal_semiperimeter;
    const core::synthesis_result r = core::synthesize(m, {f}, {"f"}, options);
    const xbar::equivalence_report report =
        xbar::validate(r.design, m, {f}, {"f"}, n);
    EXPECT_TRUE(report.equivalent)
        << "n=" << n << ": " << xbar::verdict_text(report);
    // Parity still beats the staircase.
    EXPECT_LT(r.stats.semiperimeter,
              2 * static_cast<int>(r.stats.graph_nodes));
  }
}

TEST(PropertyTest, SingleLiteralFunctions) {
  for (int n : {1, 3}) {
    for (bool positive : {true, false}) {
      bdd::manager m(n);
      const bdd::node_handle f = positive ? m.var(0) : m.nvar(0);
      core::synthesis_options options;
      options.method = core::labeling_method::minimal_semiperimeter;
      const core::synthesis_result r =
          core::synthesize(m, {f}, {"f"}, options);
      const xbar::equivalence_report report =
          xbar::validate(r.design, m, {f}, {"f"}, n);
      EXPECT_TRUE(report.equivalent) << xbar::verdict_text(report);
    }
  }
}

}  // namespace
}  // namespace compact
