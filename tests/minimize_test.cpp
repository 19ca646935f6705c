#include <gtest/gtest.h>

#include "frontend/benchgen.hpp"
#include "frontend/blif.hpp"
#include "frontend/equivalence.hpp"
#include "frontend/minimize.hpp"
#include "util/rng.hpp"

namespace compact::frontend {
namespace {

TEST(TautologyTest, Basics) {
  EXPECT_TRUE(cover_is_tautology({"--"}, 2));
  EXPECT_TRUE(cover_is_tautology({"1-", "0-"}, 2));
  EXPECT_TRUE(cover_is_tautology({"1-", "01", "00"}, 2));
  EXPECT_FALSE(cover_is_tautology({"11", "00"}, 2));
  EXPECT_FALSE(cover_is_tautology({}, 2));
  EXPECT_FALSE(cover_is_tautology({"1-"}, 2));
}

TEST(CubeCoverageTest, Basics) {
  EXPECT_TRUE(cube_covered_by("11", {"1-"}));
  EXPECT_TRUE(cube_covered_by("1-", {"11", "10"}));
  EXPECT_FALSE(cube_covered_by("1-", {"11"}));
  EXPECT_TRUE(cube_covered_by("--", {"1-", "0-"}));
}

TEST(MinimizeCoverTest, MergesAdjacentCubes) {
  // x&y | x&!y == x.
  const std::vector<std::string> result = minimize_cover({"11", "10"});
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0], "1-");
}

TEST(MinimizeCoverTest, DropsRedundantConsensusCube) {
  // ab | !ac | bc: the consensus cube bc is redundant.
  const std::vector<std::string> result =
      minimize_cover({"11-", "0-1", "-11"});
  EXPECT_EQ(result.size(), 2u);
}

TEST(MinimizeCoverTest, KeepsIrredundantCovers) {
  const std::vector<std::string> xor_cover{"10", "01"};
  EXPECT_EQ(minimize_cover(xor_cover).size(), 2u);
}

TEST(MinimizeCoverTest, ConstantsSurvive) {
  EXPECT_TRUE(minimize_cover({}).empty());
  EXPECT_EQ(minimize_cover({""}), (std::vector<std::string>{""}));
}

TEST(MinimizeCoverTest, RandomCoversStayEquivalent) {
  rng random(21);
  for (int trial = 0; trial < 40; ++trial) {
    const int width = 2 + static_cast<int>(random.next_below(5));
    std::vector<std::string> cover;
    const int cubes = 1 + static_cast<int>(random.next_below(8));
    for (int c = 0; c < cubes; ++c) {
      std::string cube(static_cast<std::size_t>(width), '-');
      for (int v = 0; v < width; ++v) {
        const auto roll = random.next_below(3);
        if (roll == 0) cube[static_cast<std::size_t>(v)] = '1';
        if (roll == 1) cube[static_cast<std::size_t>(v)] = '0';
      }
      cover.push_back(std::move(cube));
    }
    const std::vector<std::string> minimized = minimize_cover(cover);
    EXPECT_LE(minimized.size(), cover.size());
    // Same on-set, checked by brute force.
    auto covers = [&](const std::vector<std::string>& cs, std::uint64_t m) {
      for (const std::string& cube : cs) {
        bool hit = true;
        for (int v = 0; v < width && hit; ++v) {
          if (cube[static_cast<std::size_t>(v)] == '-') continue;
          if (bool((m >> v) & 1) != (cube[static_cast<std::size_t>(v)] == '1'))
            hit = false;
        }
        if (hit) return true;
      }
      return false;
    };
    for (std::uint64_t m = 0; m < (1ULL << width); ++m)
      EXPECT_EQ(covers(minimized, m), covers(cover, m))
          << "trial " << trial << " minterm " << m;
  }
}

TEST(MinimizeNetworkTest, PreservesFunctionality) {
  // A deliberately redundant BLIF model.
  const network net = parse_blif(R"(
.model redundant
.inputs a b c
.outputs f g
.names a b c f
11- 1
10- 1
1-1 1
-11 1
.names a b g
11 1
1- 1
-1 1
.end
)");
  const network minimized = minimize_network(net);
  const equivalence_report report = check_equivalence(net, minimized);
  EXPECT_TRUE(report.equivalent) << (report.mismatches.empty()
                                         ? ""
                                         : report.mismatches[0]);
  // The f cover shrinks (11-/10- merge into 1--, which then absorbs 1-1).
  std::size_t before = 0, after = 0;
  for (int i = 0; i < static_cast<int>(net.node_count()); ++i)
    before += net.node(i).cubes.size();
  for (int i = 0; i < static_cast<int>(minimized.node_count()); ++i)
    after += minimized.node(i).cubes.size();
  EXPECT_LT(after, before);
}

TEST(MinimizeNetworkTest, SuiteCircuitsStayEquivalent) {
  for (const benchmark_spec& spec : benchmark_suite()) {
    if (spec.net.node_count() > 400) continue;  // keep the sweep quick
    const network minimized = minimize_network(spec.net);
    EXPECT_TRUE(check_equivalence(spec.net, minimized).equivalent)
        << spec.name;
  }
}

}  // namespace
}  // namespace compact::frontend
