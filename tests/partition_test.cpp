// The multi-array partitioning pass (core/partition): plan determinism and
// capacity guarantees, fragment-graph construction, plan memoization,
// stitched synthesis correctness (truth tables and symbolic equivalence),
// the single-fragment fallback's byte-identity, and thread-count
// determinism on the acceptance circuits (mul6, priority64).
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "bdd/manager.hpp"
#include "core/compact.hpp"
#include "core/partition.hpp"
#include "frontend/benchgen.hpp"
#include "frontend/to_bdd.hpp"
#include "util/error.hpp"
#include "xbar/equivalence.hpp"
#include "xbar/serialize.hpp"

namespace compact::core {
namespace {

bdd_graph parity_graph(bdd::manager& m) {
  const frontend::network net = frontend::make_parity(8, 2);
  const frontend::sbdd built = frontend::build_sbdd(net, m);
  return build_bdd_graph(m, built.roots, built.names);
}

/// Recompute each fragment's worst-case nanowire demand (members + bridge
/// ports) straight from the plan, independent of the pass's own accounting.
std::vector<int> fragment_demands(const bdd_graph& g,
                                  const partition_plan& plan) {
  std::vector<int> members(static_cast<std::size_t>(plan.fragment_count), 0);
  for (const int f : plan.fragment_of) ++members[static_cast<std::size_t>(f)];
  std::set<std::pair<graph::node_id, int>> ports;
  for (const auto& [u, v] : g.g.edges()) {
    const int fu = plan.fragment_of[static_cast<std::size_t>(u)];
    const int fv = plan.fragment_of[static_cast<std::size_t>(v)];
    if (fu == fv) continue;
    ports.insert({fu < fv ? u : v, fu < fv ? fv : fu});
  }
  std::vector<int> demand = members;
  for (const auto& [u, f] : ports) {
    (void)u;
    ++demand[static_cast<std::size_t>(f)];
  }
  return demand;
}

TEST(PartitionPlanTest, PlansAreDeterministicAndFitTheCapacity) {
  bdd::manager m(8);
  const bdd_graph g = parity_graph(m);
  partition_options options;
  options.max_rows = 8;

  const partition_plan first = plan_partition(g, options);
  const partition_plan second = plan_partition(g, options);
  EXPECT_EQ(first.fragment_of, second.fragment_of);
  EXPECT_EQ(first.cut_edges, second.cut_edges);
  EXPECT_GE(first.fragment_count, 2);
  EXPECT_EQ(first.capacity, 8);

  // Fragments are intervals of the vertex order.
  for (std::size_t v = 1; v < first.fragment_of.size(); ++v)
    EXPECT_LE(first.fragment_of[v - 1], first.fragment_of[v]);
  for (const int demand : fragment_demands(g, first))
    EXPECT_LE(demand, first.capacity);
}

TEST(PartitionPlanTest, UnboundedOrRoomyBudgetsYieldOneFragment) {
  bdd::manager m(8);
  const bdd_graph g = parity_graph(m);
  const partition_plan unbounded = plan_partition(g, {});
  EXPECT_EQ(unbounded.fragment_count, 1);
  partition_options roomy;
  roomy.max_rows = 10000;
  EXPECT_EQ(plan_partition(g, roomy).fragment_count, 1);
}

TEST(PartitionPlanTest, HopelessBudgetsAreInfeasible) {
  bdd::manager m(8);
  const bdd_graph g = parity_graph(m);
  partition_options zero;
  zero.max_rows = 0;
  EXPECT_THROW((void)plan_partition(g, zero), infeasible_error);
  partition_options lone;
  lone.max_rows = 1;  // any edge needs a member plus a port somewhere
  EXPECT_THROW((void)plan_partition(g, lone), infeasible_error);
}

TEST(PartitionPlanTest, CacheHitsShareCapacityEquivalentBudgets) {
  bdd::manager m(8);
  const bdd_graph g = parity_graph(m);
  partition_cache cache;
  partition_options options;
  options.max_rows = 8;
  options.max_columns = 16;
  const partition_plan stored = plan_partition(g, options, &cache);
  EXPECT_EQ(cache.stats().misses, 1u);

  // min(8, 16) == min(8, unset) == 8: the second call must hit.
  partition_options rows_only;
  rows_only.max_rows = 8;
  const partition_plan recalled = plan_partition(g, rows_only, &cache);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(recalled.fragment_of, stored.fragment_of);
}

TEST(PartitionPlanTest, FragmentGraphsMirrorThePlan) {
  bdd::manager m(8);
  const bdd_graph g = parity_graph(m);
  partition_options options;
  options.max_rows = 8;
  const partition_plan plan = plan_partition(g, options);
  const std::vector<fragment_graph> fragments =
      build_fragment_graphs(g, plan);
  ASSERT_EQ(static_cast<int>(fragments.size()), plan.fragment_count);

  std::size_t members = 0;
  std::size_t ports = 0;
  for (std::size_t f = 0; f < fragments.size(); ++f) {
    const fragment_graph& fragment = fragments[f];
    members += fragment.member_count;
    ports += fragment.ports.size();
    EXPECT_EQ(fragment.graph.g.node_count(),
              fragment.member_count + fragment.ports.size());
    for (const fragment_graph::port& p : fragment.ports)
      EXPECT_LT(p.home_fragment, static_cast<int>(f));
  }
  EXPECT_EQ(members, g.g.node_count());
  // One port per (earlier endpoint, later fragment) pair.
  std::set<std::pair<graph::node_id, int>> expected_ports;
  for (const auto& [u, v] : g.g.edges()) {
    const int fu = plan.fragment_of[static_cast<std::size_t>(u)];
    const int fv = plan.fragment_of[static_cast<std::size_t>(v)];
    if (fu == fv) continue;
    expected_ports.insert({fu < fv ? u : v, fu < fv ? fv : fu});
  }
  EXPECT_EQ(ports, expected_ports.size());
  // Every cut edge contributed exactly one device edge somewhere: total
  // edges are conserved.
  std::size_t edges = 0;
  for (const fragment_graph& fragment : fragments)
    edges += fragment.graph.g.edge_count();
  EXPECT_EQ(edges, g.g.edge_count());
}

TEST(PartitionSynthesisTest, StitchedDesignMatchesTheTruthTable) {
  const frontend::network net = frontend::make_parity(8, 2);
  synthesis_options options;
  options.labeler = "oct";
  options.max_rows = 8;
  options.max_columns = 8;
  options.partition = true;
  const synthesis_result r = synthesize(net, options);
  EXPECT_GE(r.stats.arrays, 2);
  ASSERT_TRUE(r.partitioned.has_value());
  const xbar::partitioned_design& design = *r.partitioned;
  EXPECT_LE(design.max_fragment_rows(), 8);
  EXPECT_LE(design.max_fragment_columns(), 8);

  bdd::manager m(net.input_count());
  const frontend::sbdd built = frontend::build_sbdd(net, m);
  for (int bits = 0; bits < 256; ++bits) {
    std::vector<bool> a(8);
    for (int i = 0; i < 8; ++i) a[static_cast<std::size_t>(i)] = (bits >> i) & 1;
    for (std::size_t o = 0; o < built.names.size(); ++o)
      EXPECT_EQ(xbar::evaluate_output(design, a, built.names[o]),
                m.evaluate(built.roots[o], a))
          << "assignment " << bits << " output " << built.names[o];
  }
}

TEST(PartitionSynthesisTest, SingleFragmentFallbackIsByteIdentical) {
  const frontend::network net = frontend::make_comparator(4);
  synthesis_options options;
  options.labeler = "oct";

  const synthesis_result single = synthesize(net, options);
  synthesis_options roomy = options;
  roomy.max_rows = 10000;
  roomy.partition = true;
  const synthesis_result part = synthesize(net, roomy);
  ASSERT_EQ(part.stats.arrays, 1);
  EXPECT_FALSE(part.partitioned.has_value());

  std::ostringstream a, b;
  xbar::write_design(single.design, a);
  xbar::write_design(part.design, b);
  EXPECT_EQ(b.str(), a.str());
}

/// Acceptance circuits: budgets forcing >= 2 fragments, designs identical
/// for 1/2/8 worker threads, and the stitched symbolic checker proving
/// equivalence to the spec SBDD.
void expect_partitioned_acceptance(const frontend::network& net, int budget) {
  labeling_cache labels;
  partition_cache plans;
  std::vector<std::string> serialized;
  for (const int threads : {1, 2, 8}) {
    synthesis_options options;
    options.labeler = "mip";
    options.time_limit_seconds = 10.0;
    options.max_rows = budget;
    options.max_columns = budget;
    options.partition = true;
    options.parallel.threads = threads;
    options.cache = &labels;
    options.partition_memo = &plans;
    const synthesis_result r = synthesize(net, options);
    EXPECT_GE(r.stats.arrays, 2) << net.name();
    EXPECT_LE(r.stats.rows, budget) << net.name();
    EXPECT_LE(r.stats.columns, budget) << net.name();
    ASSERT_TRUE(r.partitioned.has_value()) << net.name();
    std::ostringstream os;
    xbar::write_partitioned_design(*r.partitioned, os);
    serialized.push_back(os.str());

    if (threads != 1) continue;
    bdd::manager m(net.input_count());
    const frontend::sbdd built = frontend::build_sbdd(net, m);
    const xbar::equivalence_report eq = xbar::validate(
        *r.partitioned, m, built.roots, built.names, net.input_count());
    EXPECT_TRUE(eq.equivalent) << net.name() << ": " << xbar::verdict_text(eq);
  }
  EXPECT_EQ(serialized[1], serialized[0]) << net.name() << " threads 2 vs 1";
  EXPECT_EQ(serialized[2], serialized[0]) << net.name() << " threads 8 vs 1";
}

TEST(PartitionSynthesisTest, Mul6AcceptanceUnderTightBudgets) {
  expect_partitioned_acceptance(frontend::make_multiplier(6), 24);
}

TEST(PartitionSynthesisTest, Priority64AcceptanceUnderTightBudgets) {
  expect_partitioned_acceptance(frontend::make_priority_encoder(64), 48);
}

}  // namespace
}  // namespace compact::core
