#include <gtest/gtest.h>

#include <algorithm>

#include "graph/vertex_cover.hpp"
#include "util/rng.hpp"

namespace compact::graph {
namespace {

std::size_t brute_force_vc(const undirected_graph& g) {
  const int n = static_cast<int>(g.node_count());
  std::size_t best = g.node_count();
  for (int mask = 0; mask < (1 << n); ++mask) {
    std::vector<bool> cover(g.node_count());
    for (int v = 0; v < n; ++v) cover[static_cast<std::size_t>(v)] = mask & (1 << v);
    if (is_vertex_cover(g, cover))
      best = std::min(best,
                      static_cast<std::size_t>(__builtin_popcount(
                          static_cast<unsigned>(mask))));
  }
  return best;
}

undirected_graph random_graph(rng& random, int n, int edge_percent) {
  undirected_graph g(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j)
      if (static_cast<int>(random.next_below(100)) < edge_percent)
        g.add_edge(i, j);
  return g;
}

TEST(VertexCoverTest, GreedyIsAValidCover) {
  rng random(5);
  for (int t = 0; t < 20; ++t) {
    const undirected_graph g = random_graph(random, 12, 30);
    EXPECT_TRUE(is_vertex_cover(g, greedy_vertex_cover(g)));
  }
}

TEST(VertexCoverTest, IsVertexCoverDetectsUncoveredEdge) {
  undirected_graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  EXPECT_FALSE(is_vertex_cover(g, {true, false, false}));
  EXPECT_TRUE(is_vertex_cover(g, {false, true, false}));
  EXPECT_FALSE(is_vertex_cover(g, {true, false}));  // wrong size
}

TEST(VertexCoverTest, IlpMatchesBruteForce) {
  rng random(17);
  for (int t = 0; t < 25; ++t) {
    const undirected_graph g = random_graph(random, 10, 35);
    const vertex_cover_result r = min_vertex_cover_ilp(g);
    EXPECT_TRUE(r.optimal);
    EXPECT_TRUE(is_vertex_cover(g, r.in_cover));
    EXPECT_EQ(r.size, brute_force_vc(g)) << "trial " << t;
  }
}

TEST(VertexCoverTest, KnownInstances) {
  // Path P3: cover {middle}.
  undirected_graph p3(3);
  p3.add_edge(0, 1);
  p3.add_edge(1, 2);
  EXPECT_EQ(min_vertex_cover_ilp(p3).size, 1u);

  // Cycle C5 needs 3.
  undirected_graph c5(5);
  for (int i = 0; i < 5; ++i) c5.add_edge(i, (i + 1) % 5);
  EXPECT_EQ(min_vertex_cover_ilp(c5).size, 3u);

  // Complete graph K4 needs 3.
  undirected_graph k4(4);
  for (int i = 0; i < 4; ++i)
    for (int j = i + 1; j < 4; ++j) k4.add_edge(i, j);
  EXPECT_EQ(min_vertex_cover_ilp(k4).size, 3u);

  // Star K1,5 needs 1.
  undirected_graph star(6);
  for (int i = 1; i < 6; ++i) star.add_edge(0, i);
  EXPECT_EQ(min_vertex_cover_ilp(star).size, 1u);
}

TEST(VertexCoverTest, EdgelessGraphHasEmptyCover) {
  const undirected_graph g(7);
  const vertex_cover_result r = min_vertex_cover_ilp(g);
  EXPECT_EQ(r.size, 0u);
  EXPECT_TRUE(r.optimal);
}

TEST(VertexCoverTest, BipartiteMatchesKonig) {
  // Complete bipartite K3,4: min VC = 3 (Konig: max matching = 3).
  undirected_graph g(7);
  for (int i = 0; i < 3; ++i)
    for (int j = 3; j < 7; ++j) g.add_edge(i, j);
  EXPECT_EQ(min_vertex_cover_ilp(g).size, 3u);
}

}  // namespace
}  // namespace compact::graph
