// OCT kernelization (core/oct_reduce): the reductions must be exact —
// kernelize -> solve -> lift yields a *valid* transversal of the original
// graph with exactly the size of the unreduced optimum — and the labeling
// cache must key on the reduction configuration (but never on the thread
// count).
#include <gtest/gtest.h>

#include <algorithm>

#include "core/bdd_graph.hpp"
#include "core/compact.hpp"
#include "core/oct_reduce.hpp"
#include "frontend/benchgen.hpp"
#include "frontend/to_bdd.hpp"
#include "graph/oct.hpp"
#include "util/rng.hpp"

namespace compact::core {
namespace {

using graph::undirected_graph;

undirected_graph random_graph(rng& random, int nodes, int percent) {
  undirected_graph g(nodes);
  for (int i = 0; i < nodes; ++i)
    for (int j = i + 1; j < nodes; ++j)
      if (random.next_below(100) < static_cast<std::uint64_t>(percent))
        g.add_edge(i, j);
  return g;
}

std::size_t count_true(const std::vector<bool>& bits) {
  return static_cast<std::size_t>(std::count(bits.begin(), bits.end(), true));
}

TEST(OctReduceTest, BipartiteGraphSolvesToEmptyTransversal) {
  undirected_graph g(6);  // a 6-cycle: even, so bipartite
  for (int i = 0; i < 6; ++i) g.add_edge(i, (i + 1) % 6);
  const oct_kernel kernel = kernelize_for_oct(g);
  EXPECT_TRUE(kernel.solved());
  EXPECT_EQ(kernel.stats().forced, 0u);
  const std::vector<bool> lifted = kernel.lift({});
  EXPECT_EQ(count_true(lifted), 0u);
  EXPECT_TRUE(graph::is_odd_cycle_transversal(g, lifted));
}

TEST(OctReduceTest, TriangleSolvedOutrightByForcedRule) {
  undirected_graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  const oct_kernel kernel = kernelize_for_oct(g);
  EXPECT_TRUE(kernel.solved());
  EXPECT_EQ(kernel.stats().forced, 1u);
  const std::vector<bool> lifted = kernel.lift({});
  EXPECT_EQ(count_true(lifted), 1u);
  EXPECT_TRUE(graph::is_odd_cycle_transversal(g, lifted));
}

TEST(OctReduceTest, ReducedSolveIsDeterministic) {
  rng random(7);
  const undirected_graph g = random_graph(random, 14, 25);
  const graph::oct_result a = reduced_odd_cycle_transversal(g);
  const graph::oct_result b = reduced_odd_cycle_transversal(g);
  EXPECT_EQ(a.in_transversal, b.in_transversal);
  EXPECT_EQ(a.size, b.size);
}

// The acceptance property: over >= 200 random graphs spanning tree-like to
// dense, the kernelized solve is optimal-size-preserving and the lift is
// always a valid transversal of the *original* graph. Three trials in four
// carry a random never-deleted vertex (the alignment anchor), which the
// lift must avoid.
TEST(OctReduceTest, KernelizedSolveMatchesUnreducedOnRandomGraphs) {
  rng random(2026);
  for (int t = 0; t < 220; ++t) {
    const int nodes = 4 + static_cast<int>(random.next_below(14));
    const int percent = 8 + static_cast<int>(random.next_below(32));
    const undirected_graph g = random_graph(random, nodes, percent);
    graph::oct_options options;
    if (t % 4 != 0)
      options.anchor = static_cast<graph::node_id>(
          random.next_below(static_cast<std::uint64_t>(nodes)));

    const graph::oct_result plain = graph::odd_cycle_transversal(g, options);
    oct_reduction_stats stats;
    const graph::oct_result reduced =
        reduced_odd_cycle_transversal(g, options, &stats);

    ASSERT_TRUE(plain.optimal) << "trial " << t;
    ASSERT_TRUE(reduced.optimal) << "trial " << t;
    EXPECT_TRUE(graph::is_odd_cycle_transversal(g, reduced.in_transversal))
        << "trial " << t;
    if (options.anchor >= 0) {
      EXPECT_FALSE(
          reduced.in_transversal[static_cast<std::size_t>(options.anchor)])
          << "trial " << t;
    }
    EXPECT_EQ(reduced.size, plain.size) << "trial " << t;
    EXPECT_EQ(count_true(reduced.in_transversal), reduced.size)
        << "trial " << t;
    EXPECT_EQ(stats.original_nodes, static_cast<std::size_t>(g.node_count()))
        << "trial " << t;
  }
}

// Same property on real BDD graphs (the structures the labeling stage
// actually feeds the solver).
TEST(OctReduceTest, KernelizedSolveMatchesUnreducedOnBddGraphs) {
  const std::vector<frontend::network> circuits = {
      frontend::make_mux_tree(3), frontend::make_comparator(4),
      frontend::make_ripple_adder(3), frontend::make_parity(8, 2),
      frontend::make_decoder(3)};
  for (std::size_t c = 0; c < circuits.size(); ++c) {
    const frontend::network& net = circuits[c];
    bdd::manager m(net.input_count());
    const frontend::sbdd built = frontend::build_sbdd(net, m);
    const bdd_graph bg = build_bdd_graph(m, built.roots, built.names);

    const graph::oct_result plain = graph::odd_cycle_transversal(bg.g);
    const graph::oct_result reduced = reduced_odd_cycle_transversal(bg.g);

    ASSERT_TRUE(plain.optimal) << "circuit " << c;
    ASSERT_TRUE(reduced.optimal) << "circuit " << c;
    EXPECT_TRUE(graph::is_odd_cycle_transversal(bg.g, reduced.in_transversal))
        << "circuit " << c;
    EXPECT_EQ(reduced.size, plain.size) << "circuit " << c;
  }
}

// --- labeling-cache keying --------------------------------------------------

synthesis_stats synthesize_with(const frontend::network& net,
                                labeling_cache* cache, bool reduce,
                                int threads) {
  bdd::manager m(net.input_count());
  const frontend::sbdd built = frontend::build_sbdd(net, m);
  synthesis_options options;
  options.method = labeling_method::minimal_semiperimeter;
  options.cache = cache;
  options.oct_reduction = reduce;
  options.parallel.threads = threads;
  return synthesize(m, built.roots, built.names, options).stats;
}

// Regression: a labeling cached under reductions-off must never be served
// to a reductions-on request (and vice versa) — the salts differ.
TEST(OctReduceTest, CacheSeparatesReductionsOnFromReductionsOff) {
  const frontend::network net = frontend::make_comparator(4);
  labeling_cache cache;

  // Stats report the cache's cumulative traffic; assert on the deltas.
  const synthesis_stats off = synthesize_with(net, &cache, false, 1);
  EXPECT_EQ(off.cache_hits, 0u);
  EXPECT_GT(off.cache_misses, 0u);

  // Reductions-on must MISS: the off-entry's key does not cover it.
  const synthesis_stats on = synthesize_with(net, &cache, true, 1);
  EXPECT_EQ(on.cache_hits, 0u);
  EXPECT_GT(on.cache_misses, off.cache_misses);

  // Same configuration again now hits without another miss.
  const synthesis_stats on_again = synthesize_with(net, &cache, true, 1);
  EXPECT_GT(on_again.cache_hits, 0u);
  EXPECT_EQ(on_again.cache_misses, on.cache_misses);
}

// The thread count must NOT participate in the cache key: results are
// bit-identical across thread counts, so a serial entry must satisfy a
// parallel request.
TEST(OctReduceTest, CacheIgnoresThreadCount) {
  const frontend::network net = frontend::make_comparator(4);
  labeling_cache cache;

  const synthesis_stats serial = synthesize_with(net, &cache, true, 1);
  EXPECT_EQ(serial.cache_hits, 0u);
  EXPECT_GT(serial.cache_misses, 0u);

  // The serial entry satisfies the 4-thread request: a hit, no new miss.
  const synthesis_stats threaded = synthesize_with(net, &cache, true, 4);
  EXPECT_GT(threaded.cache_hits, 0u);
  EXPECT_EQ(threaded.cache_misses, serial.cache_misses);
}

}  // namespace
}  // namespace compact::core
