// Property sweeps across the analog stack: for random synthesized designs,
// the ideal MNA, the wire-aware solver (with healthy wires) and the digital
// reference must all agree.
#include <gtest/gtest.h>

#include "analog/mna.hpp"
#include "analog/wire_aware.hpp"
#include "core/compact.hpp"
#include "util/rng.hpp"
#include "xbar/evaluate.hpp"

namespace compact::analog {
namespace {

struct random_case {
  bdd::manager m;
  std::vector<bdd::node_handle> roots;
  std::vector<std::string> names;

  random_case(int inputs, std::uint64_t seed) : m(inputs) {
    rng random(seed);
    bdd::node_handle f = m.constant(false);
    for (int c = 0; c < 4; ++c) {
      bdd::node_handle cube = m.constant(true);
      for (int v = 0; v < inputs; ++v) {
        const auto roll = random.next_below(3);
        if (roll == 0) cube = m.apply_and(cube, m.var(v));
        if (roll == 1) cube = m.apply_and(cube, m.nvar(v));
      }
      f = m.apply_or(f, cube);
    }
    roots.push_back(f);
    names.push_back("f");
  }
};

class AnalogAgreement : public ::testing::TestWithParam<int> {};

TEST_P(AnalogAgreement, ThreeModelsAgree) {
  const int seed = GetParam();
  random_case fn(4, static_cast<std::uint64_t>(seed));
  if (fn.m.is_terminal(fn.roots[0])) return;  // degenerate constant

  core::synthesis_options options;
  options.labeler = "oct";
  const core::synthesis_result r =
      core::synthesize(fn.m, fn.roots, fn.names, options);
  if (r.design.outputs().empty()) return;

  wire_model wires;
  wires.r_wire = 0.2;
  for (int v = 0; v < 16; ++v) {
    std::vector<bool> a(4);
    for (int i = 0; i < 4; ++i) a[static_cast<std::size_t>(i)] = (v >> i) & 1;
    const bool digital = xbar::evaluate_output(r.design, a, "f");
    EXPECT_EQ(simulate(r.design, a).output_logic[0], digital) << "v=" << v;
    const wire_aware_result wired = simulate_wire_aware(r.design, a, wires);
    ASSERT_TRUE(wired.converged);
    EXPECT_EQ(wired.output_logic[0], digital) << "v=" << v;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomDesigns, AnalogAgreement,
                         ::testing::Range(100, 112));

}  // namespace
}  // namespace compact::analog
