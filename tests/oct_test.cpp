#include <gtest/gtest.h>

#include <algorithm>

#include "graph/bipartite.hpp"
#include "graph/oct.hpp"
#include "util/rng.hpp"

namespace compact::graph {
namespace {

std::size_t brute_force_oct(const undirected_graph& g) {
  const int n = static_cast<int>(g.node_count());
  std::size_t best = g.node_count();
  for (int mask = 0; mask < (1 << n); ++mask) {
    std::vector<bool> transversal(g.node_count());
    for (int v = 0; v < n; ++v)
      transversal[static_cast<std::size_t>(v)] = mask & (1 << v);
    if (is_odd_cycle_transversal(g, transversal))
      best = std::min(best, static_cast<std::size_t>(__builtin_popcount(
                                static_cast<unsigned>(mask))));
  }
  return best;
}

undirected_graph odd_cycle(int n) {
  undirected_graph g(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) g.add_edge(i, (i + 1) % n);
  return g;
}

TEST(OctTest, BipartiteGraphNeedsNothing) {
  undirected_graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  const oct_result r = odd_cycle_transversal(g);
  EXPECT_EQ(r.size, 0u);
  EXPECT_TRUE(r.optimal);
}

TEST(OctTest, SingleOddCycleNeedsOne) {
  for (int n : {3, 5, 7, 9}) {
    const oct_result r = odd_cycle_transversal(odd_cycle(n));
    EXPECT_EQ(r.size, 1u) << "C" << n;
    EXPECT_TRUE(r.optimal);
    EXPECT_TRUE(is_odd_cycle_transversal(odd_cycle(n), r.in_transversal));
  }
}

TEST(OctTest, TwoDisjointTrianglesNeedTwo) {
  undirected_graph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  g.add_edge(3, 4);
  g.add_edge(4, 5);
  g.add_edge(3, 5);
  const oct_result r = odd_cycle_transversal(g);
  EXPECT_EQ(r.size, 2u);
  EXPECT_TRUE(is_odd_cycle_transversal(g, r.in_transversal));
}

TEST(OctTest, CompleteGraphK5NeedsThree) {
  // K_n needs n - 2 deletions to become bipartite.
  undirected_graph g(5);
  for (int i = 0; i < 5; ++i)
    for (int j = i + 1; j < 5; ++j) g.add_edge(i, j);
  EXPECT_EQ(odd_cycle_transversal(g).size, 3u);
}

TEST(OctTest, MatchesBruteForceOnRandomGraphs) {
  rng random(31);
  for (int t = 0; t < 20; ++t) {
    undirected_graph g(9);
    for (int i = 0; i < 9; ++i)
      for (int j = i + 1; j < 9; ++j)
        if (random.next_below(100) < 25) g.add_edge(i, j);
    const oct_result r = odd_cycle_transversal(g);
    EXPECT_TRUE(r.optimal);
    EXPECT_TRUE(is_odd_cycle_transversal(g, r.in_transversal));
    EXPECT_EQ(r.size, brute_force_oct(g)) << "trial " << t;
  }
}

/// Every minimum transversal avoiding `anchor`, as bitmasks in increasing
/// order, by exhaustive search in order of size with a bitmask
/// bipartiteness test (fast enough for 14 vertices).
std::vector<unsigned> brute_force_minimum_transversals(const undirected_graph& g,
                                                       node_id anchor) {
  const int n = static_cast<int>(g.node_count());
  std::vector<unsigned> adjacency(static_cast<std::size_t>(n), 0);
  for (const edge& e : g.edges()) {
    adjacency[static_cast<std::size_t>(e.u)] |= 1u << e.v;
    adjacency[static_cast<std::size_t>(e.v)] |= 1u << e.u;
  }
  const auto bipartite_without = [&](unsigned removed) {
    unsigned side[2] = {0, 0};
    unsigned unvisited = ((1u << n) - 1) & ~removed;
    while (unvisited != 0) {
      unsigned frontier = unvisited & -unvisited;
      int parity = 0;
      while (frontier != 0) {
        side[parity] |= frontier;
        unvisited &= ~frontier;
        unsigned next = 0;
        for (unsigned f = frontier; f != 0; f &= f - 1)
          next |= adjacency[static_cast<std::size_t>(__builtin_ctz(f))];
        next &= ~removed;
        if ((next & side[parity]) != 0) return false;
        parity ^= 1;
        frontier = next & unvisited;
      }
    }
    return true;
  };
  std::vector<unsigned> minimum;
  for (int size = 0; size <= n && minimum.empty(); ++size)
    for (unsigned mask = 0; mask < (1u << n); ++mask)
      if (__builtin_popcount(mask) == size &&
          (anchor < 0 || (mask & (1u << anchor)) == 0) &&
          bipartite_without(mask))
        minimum.push_back(mask);
  return minimum;
}

std::size_t brute_force_anchored_oct(const undirected_graph& g,
                                     node_id anchor) {
  return static_cast<std::size_t>(
      __builtin_popcount(brute_force_minimum_transversals(g, anchor).front()));
}

// The engine against exhaustive search: 240 random graphs of 4-14
// vertices at 8-40% density, every second one with a never-deleted vertex.
TEST(OctTest, EngineMatchesBruteForceWithAndWithoutAnchor) {
  rng random(2027);
  for (int t = 0; t < 240; ++t) {
    const int n = 4 + static_cast<int>(random.next_below(11));
    const int percent = 8 + static_cast<int>(random.next_below(33));
    undirected_graph g(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
      for (int j = i + 1; j < n; ++j)
        if (static_cast<int>(random.next_below(100)) < percent)
          g.add_edge(i, j);
    oct_options options;
    if (t % 2 == 1)
      options.anchor = static_cast<node_id>(
          random.next_below(static_cast<std::uint64_t>(n)));
    const oct_result r = odd_cycle_transversal(g, options);
    ASSERT_TRUE(r.optimal) << "trial " << t;
    EXPECT_TRUE(is_odd_cycle_transversal(g, r.in_transversal))
        << "trial " << t;
    if (options.anchor >= 0) {
      EXPECT_FALSE(r.in_transversal[static_cast<std::size_t>(options.anchor)])
          << "trial " << t;
    }
    EXPECT_EQ(r.size, brute_force_anchored_oct(g, options.anchor))
        << "trial " << t;
    EXPECT_EQ(r.lower_bound, r.size) << "trial " << t;
  }
}

// The enumerator against exhaustive search on the same kind of graphs: it
// visits every minimum transversal exactly once and nothing else. A node
// limit below its effort, or a visitor that ends it, leaves it incomplete;
// a limit equal to its effort does not.
TEST(OctTest, EnumeratorVisitsExactlyTheMinimumTransversals) {
  rng random(2029);
  const auto never_stop = [](const std::vector<bool>&) { return false; };
  for (int t = 0; t < 240; ++t) {
    const int n = 4 + static_cast<int>(random.next_below(11));
    const int percent = 8 + static_cast<int>(random.next_below(33));
    undirected_graph g(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
      for (int j = i + 1; j < n; ++j)
        if (static_cast<int>(random.next_below(100)) < percent)
          g.add_edge(i, j);
    node_id anchor = -1;
    if (t % 2 == 1)
      anchor = static_cast<node_id>(
          random.next_below(static_cast<std::uint64_t>(n)));
    const std::vector<unsigned> expected =
        brute_force_minimum_transversals(g, anchor);
    const auto size =
        static_cast<std::size_t>(__builtin_popcount(expected.front()));

    std::vector<unsigned> visited;
    const oct_enumeration all = enumerate_minimum_transversals(
        g, anchor, size, 1u << 20, [&](const std::vector<bool>& x) {
          unsigned mask = 0;
          for (int v = 0; v < n; ++v)
            if (x[static_cast<std::size_t>(v)]) mask |= 1u << v;
          visited.push_back(mask);
          return false;
        });
    EXPECT_TRUE(all.complete) << "trial " << t;
    std::sort(visited.begin(), visited.end());
    EXPECT_EQ(visited, expected) << "trial " << t;

    const oct_enumeration exact =
        enumerate_minimum_transversals(g, anchor, size, all.search_nodes,
                                       never_stop);
    EXPECT_TRUE(exact.complete) << "trial " << t;
    EXPECT_EQ(exact.search_nodes, all.search_nodes) << "trial " << t;
    const oct_enumeration cut =
        enumerate_minimum_transversals(g, anchor, size, all.search_nodes - 1,
                                       never_stop);
    EXPECT_FALSE(cut.complete) << "trial " << t;
    EXPECT_EQ(cut.search_nodes, all.search_nodes - 1) << "trial " << t;

    int calls = 0;
    const oct_enumeration ended = enumerate_minimum_transversals(
        g, anchor, size, 1u << 20, [&calls](const std::vector<bool>&) {
          ++calls;
          return true;
        });
    EXPECT_FALSE(ended.complete) << "trial " << t;
    EXPECT_EQ(calls, 1) << "trial " << t;
  }
}

// The Lemma-1 ILP oracle agrees with the engine on larger graphs than
// exhaustive search reaches, anchor included.
TEST(OctTest, IlpOracleAgreesWithEngineOnLargerGraphs) {
  rng random(43);
  for (int t = 0; t < 20; ++t) {
    const int n = 15 + static_cast<int>(random.next_below(16));
    undirected_graph g(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
      for (int j = i + 1; j < n; ++j)
        if (static_cast<int>(random.next_below(1000)) < 2500 / n)
          g.add_edge(i, j);
    oct_options bnb;
    if (t % 2 == 1)
      bnb.anchor = static_cast<node_id>(
          random.next_below(static_cast<std::uint64_t>(n)));
    oct_options ilp = bnb;
    ilp.engine = oct_engine::ilp;
    const oct_result a = odd_cycle_transversal(g, bnb);
    const oct_result b = odd_cycle_transversal(g, ilp);
    ASSERT_TRUE(a.optimal) << "trial " << t;
    ASSERT_TRUE(b.optimal) << "trial " << t;
    EXPECT_EQ(a.size, b.size) << "trial " << t;
  }
}

TEST(OctTest, IlpEngineAgreesWithBnb) {
  rng random(37);
  for (int t = 0; t < 6; ++t) {
    undirected_graph g(7);
    for (int i = 0; i < 7; ++i)
      for (int j = i + 1; j < 7; ++j)
        if (random.next_below(100) < 30) g.add_edge(i, j);
    oct_options bnb_opt;
    bnb_opt.engine = oct_engine::bnb;
    oct_options ilp_opt;
    ilp_opt.engine = oct_engine::ilp;
    const oct_result a = odd_cycle_transversal(g, bnb_opt);
    const oct_result b = odd_cycle_transversal(g, ilp_opt);
    EXPECT_EQ(a.size, b.size) << "trial " << t;
  }
}

TEST(OctTest, GreedyIsAlwaysValid) {
  rng random(41);
  for (int t = 0; t < 20; ++t) {
    undirected_graph g(12);
    for (int i = 0; i < 12; ++i)
      for (int j = i + 1; j < 12; ++j)
        if (random.next_below(100) < 30) g.add_edge(i, j);
    const oct_result r = greedy_odd_cycle_transversal(g);
    EXPECT_TRUE(is_odd_cycle_transversal(g, r.in_transversal));
  }
}

TEST(OctTest, ValidityCheckerRejectsNonTransversal) {
  const undirected_graph g = odd_cycle(3);
  EXPECT_FALSE(is_odd_cycle_transversal(g, {false, false, false}));
  EXPECT_TRUE(is_odd_cycle_transversal(g, {true, false, false}));
}

}  // namespace
}  // namespace compact::graph
