// Edge-case sweeps across small utilities that the main suites exercise
// only implicitly.
#include <gtest/gtest.h>

#include <sstream>

#include "graph/bipartite.hpp"
#include "graph/graph.hpp"
#include "graph/oct.hpp"
#include "graph/product.hpp"
#include "util/rng.hpp"

namespace compact::graph {
namespace {

TEST(GraphEdgeCases, HasEdgeIsSymmetricAndScansSmallerList) {
  // Star: center has a long adjacency list, leaves short ones; has_edge
  // must agree regardless of argument order.
  undirected_graph g(10);
  for (node_id v = 1; v < 10; ++v) g.add_edge(0, v);
  for (node_id v = 1; v < 10; ++v) {
    EXPECT_TRUE(g.has_edge(0, v));
    EXPECT_TRUE(g.has_edge(v, 0));
  }
  EXPECT_FALSE(g.has_edge(1, 2));
  EXPECT_FALSE(g.has_edge(2, 1));
}

TEST(GraphEdgeCases, InducedSubgraphOfNothingAndEverything) {
  undirected_graph g(3);
  g.add_edge(0, 1);
  const auto none = g.induced_subgraph({false, false, false});
  EXPECT_EQ(none.subgraph.node_count(), 0u);
  const auto all = g.induced_subgraph({true, true, true});
  EXPECT_EQ(all.subgraph.node_count(), 3u);
  EXPECT_EQ(all.subgraph.edge_count(), 1u);
}

TEST(GraphEdgeCases, ProductOfBipartiteGraphIsBipartite) {
  // C4 x K2 is a cube graph — still bipartite.
  undirected_graph c4(4);
  for (int i = 0; i < 4; ++i) c4.add_edge(i, (i + 1) % 4);
  EXPECT_TRUE(is_bipartite(cartesian_product_k2(c4)));
  // C5 x K2 contains odd cycles.
  undirected_graph c5(5);
  for (int i = 0; i < 5; ++i) c5.add_edge(i, (i + 1) % 5);
  EXPECT_FALSE(is_bipartite(cartesian_product_k2(c5)));
}

TEST(GraphEdgeCases, OctOfWheelGraphs) {
  // Wheel W_n (odd rim): hub + rim; deleting the hub leaves an odd cycle,
  // so the minimum OCT needs 2 vertices for odd rims.
  for (int rim : {5, 7}) {
    undirected_graph wheel(rim + 1);
    for (int i = 0; i < rim; ++i) {
      wheel.add_edge(i, (i + 1) % rim);
      wheel.add_edge(i, rim);  // hub
    }
    const oct_result r = odd_cycle_transversal(wheel);
    ASSERT_TRUE(r.optimal);
    EXPECT_EQ(r.size, 2u) << "W" << rim;
  }
}

TEST(GraphEdgeCases, GreedyOctOnDenseGraphIsStillValid) {
  // K7: minimum OCT is 5; greedy must at least return something valid.
  undirected_graph k7(7);
  for (int i = 0; i < 7; ++i)
    for (int j = i + 1; j < 7; ++j) k7.add_edge(i, j);
  const oct_result greedy = greedy_odd_cycle_transversal(k7);
  EXPECT_TRUE(is_odd_cycle_transversal(k7, greedy.in_transversal));
  EXPECT_GE(greedy.size, 5u);
  const oct_result exact = odd_cycle_transversal(k7);
  ASSERT_TRUE(exact.optimal);
  EXPECT_EQ(exact.size, 5u);
}

TEST(GraphEdgeCases, BalancedColoringWithLopsidedBias) {
  // Edge components are pinned to a 1/1 split whatever the bias; lopsided
  // star components must flee the heavy side.
  undirected_graph g(8);
  g.add_edge(0, 1);  // pinned pair
  g.add_edge(2, 3);
  g.add_edge(4, 5);  // star K1,3 rooted at 4: splits 1/3 or 3/1
  g.add_edge(4, 6);
  g.add_edge(4, 7);
  const two_coloring c = balanced_two_color(g, 0, 100);
  EXPECT_TRUE(is_proper_two_coloring(g, c));
  int color0 = 0;
  for (int v = 0; v < 8; ++v)
    if (c.color_of[static_cast<std::size_t>(v)] == 0) ++color0;
  // Pinned pairs give 2; the star must put its 3 leaves on side 0.
  EXPECT_EQ(color0, 5);
}

}  // namespace
}  // namespace compact::graph
