// The parallel execution layer's contract: the pool runs every task, helpers
// preserve item order, and every parallel site is bit-deterministic — the
// same report for any thread count, because randomness comes from per-item
// rng substreams and merges happen in item order.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <sstream>

#include "core/compact.hpp"
#include "frontend/benchgen.hpp"
#include "frontend/to_bdd.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "xbar/faults.hpp"
#include "xbar/serialize.hpp"

namespace compact {
namespace {

std::string design_text(const xbar::crossbar& design) {
  std::ostringstream os;
  xbar::write_design(design, os);
  return os.str();
}

TEST(ThreadPoolTest, RunsSubmittedTasksAndReturnsValues) {
  thread_pool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 32; ++i)
    futures.push_back(pool.submit([i] { return i * i; }));
  for (int i = 0; i < 32; ++i) EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
}

TEST(ThreadPoolTest, PropagatesTaskExceptionsThroughTheFuture) {
  thread_pool pool(2);
  auto future = pool.submit([]() -> int { throw error("boom"); });
  EXPECT_THROW((void)future.get(), error);
}

TEST(ThreadPoolTest, DestructorJoinsWithQueuedWork) {
  std::atomic<int> ran{0};
  {
    thread_pool pool(3);
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 100; ++i)
      futures.push_back(pool.submit([&ran] { ++ran; }));
    for (auto& f : futures) f.get();
  }
  EXPECT_EQ(ran.load(), 100);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  for (const int threads : {1, 2, 8}) {
    std::vector<int> hits(1000, 0);
    parallel_for({threads}, hits.size(),
                 [&](std::size_t i) { ++hits[i]; });
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 1000)
        << "threads=" << threads;
    for (int h : hits) EXPECT_EQ(h, 1);
  }
}

TEST(ParallelForTest, HandlesEdgeCounts) {
  for (const int threads : {1, 8}) {
    int ran = 0;
    parallel_for({threads}, 0, [&](std::size_t) { ++ran; });
    EXPECT_EQ(ran, 0);
    std::atomic<int> one{0};
    parallel_for({threads}, 1, [&](std::size_t) { ++one; });
    EXPECT_EQ(one.load(), 1);
    // Fewer items than threads.
    std::vector<int> three(3, 0);
    parallel_for({threads}, three.size(), [&](std::size_t i) { ++three[i]; });
    for (int h : three) EXPECT_EQ(h, 1);
  }
}

TEST(ParallelForTest, RethrowsTheLowestIndexedFailure) {
  for (const int threads : {1, 2, 8}) {
    try {
      parallel_for({threads}, 100, [](std::size_t i) {
        if (i == 17 || i == 63) throw error("failed at " + std::to_string(i));
      });
      FAIL() << "expected an exception (threads=" << threads << ")";
    } catch (const error& e) {
      EXPECT_STREQ(e.what(), "failed at 17") << "threads=" << threads;
    }
  }
}

TEST(ParallelMapTest, ReturnsResultsInItemOrder) {
  for (const int threads : {1, 2, 8}) {
    const std::vector<int> squares = parallel_map(
        {threads}, 257, [](std::size_t i) { return static_cast<int>(i * i); });
    ASSERT_EQ(squares.size(), 257u);
    for (std::size_t i = 0; i < squares.size(); ++i)
      EXPECT_EQ(squares[i], static_cast<int>(i * i));
  }
}

TEST(ParallelMapTest, SupportsMoveOnlyNonDefaultConstructibleResults) {
  struct payload {
    explicit payload(int v) : value(v) {}
    payload(payload&&) = default;
    payload& operator=(payload&&) = default;
    int value;
  };
  const std::vector<payload> results = parallel_map(
      {4}, 50, [](std::size_t i) { return payload(static_cast<int>(i)); });
  for (std::size_t i = 0; i < results.size(); ++i)
    EXPECT_EQ(results[i].value, static_cast<int>(i));
}

TEST(RngSubstreamTest, SubstreamsAreReproducibleAndDecorrelated) {
  const rng base(42);
  rng a = base.substream(0);
  rng a_again = base.substream(0);
  rng b = base.substream(1);
  bool all_equal = true;
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t va = a.next_u64();
    EXPECT_EQ(va, a_again.next_u64());
    all_equal = all_equal && (va == b.next_u64());
  }
  EXPECT_FALSE(all_equal);  // adjacent substreams diverge
}

TEST(RngSubstreamTest, IndependentOfParentDraws) {
  rng parent(7);
  const rng fresh(7);
  (void)parent.next_u64();
  (void)parent.next_u64();
  rng after_draws = parent.substream(3);
  rng from_fresh = fresh.substream(3);
  for (int i = 0; i < 16; ++i)
    EXPECT_EQ(after_draws.next_u64(), from_fresh.next_u64());
}

/// A synthesized comparator used by the determinism checks below.
const core::synthesis_result& shared_design() {
  static const core::synthesis_result r = [] {
    core::synthesis_options options;
    options.labeler = "oct";
    return core::synthesize(frontend::make_comparator(3), options);
  }();
  return r;
}

TEST(ParallelDeterminismTest, YieldReportBitIdenticalAcrossThreadCounts) {
  const core::synthesis_result& r = shared_design();
  xbar::yield_options options;
  options.trials = 150;
  options.fault_rate = 0.03;
  options.parallel.threads = 1;
  const xbar::yield_report serial = xbar::estimate_yield(r.design, 6, options);
  for (const int threads : {2, 8}) {
    options.parallel.threads = threads;
    const xbar::yield_report parallel_report =
        xbar::estimate_yield(r.design, 6, options);
    EXPECT_EQ(parallel_report.trials, serial.trials) << "threads=" << threads;
    EXPECT_EQ(parallel_report.functional, serial.functional)
        << "threads=" << threads;
    EXPECT_EQ(parallel_report.yield, serial.yield) << "threads=" << threads;
    EXPECT_EQ(parallel_report.average_faults, serial.average_faults)
        << "threads=" << threads;
  }
}

TEST(ParallelDeterminismTest, SeparateRobddsDesignIdenticalAcrossThreadCounts) {
  const frontend::network net = frontend::make_comparator(3);
  core::synthesis_options options;
  options.labeler = "oct";
  options.separate_robdds = true;
  options.parallel.threads = 1;
  const core::synthesis_result serial = core::synthesize(net, options);
  const std::string serial_text = design_text(serial.design);
  for (const int threads : {2, 8}) {
    options.parallel.threads = threads;
    const core::synthesis_result parallel_result =
        core::synthesize(net, options);
    EXPECT_EQ(design_text(parallel_result.design), serial_text)
        << "threads=" << threads;
    EXPECT_EQ(parallel_result.stats.graph_nodes, serial.stats.graph_nodes);
    EXPECT_EQ(parallel_result.stats.semiperimeter, serial.stats.semiperimeter);
  }
}

// The labeling solver's round-based parallel branch-and-bound must produce
// bit-identical designs for any thread count (the Table 4 protocol:
// weighted MIP, one shared SBDD per circuit). At gamma 0.4 Method 1's
// optimality certificate answers comparator(3) and parity(8, 2) without a
// search, while mux_tree(3) and int2float(4) branch.
TEST(ParallelDeterminismTest, SolverDesignsBitIdenticalAcrossThreadCounts) {
  const bool was_enabled = metrics_enabled();
  set_metrics_enabled(true);
  metric_counter& nodes = global_metrics().counter("milp.bnb.nodes_explored");
  struct circuit {
    frontend::network net;
    bool branches;
  };
  const std::vector<circuit> circuits = {
      {frontend::make_mux_tree(3), true},
      {frontend::make_comparator(3), false},
      {frontend::make_parity(8, 2), false},
      {frontend::make_int2float(4), true}};
  for (std::size_t c = 0; c < circuits.size(); ++c) {
    const frontend::network& net = circuits[c].net;
    bdd::manager m(net.input_count());
    const frontend::sbdd built = frontend::build_sbdd(net, m);
    core::synthesis_options options;
    options.labeler = "mip";
    options.gamma = 0.4;
    options.time_limit_seconds = 60.0;  // solved to optimality well within
    options.parallel.threads = 1;
    const std::uint64_t nodes_before = nodes.value();
    const core::synthesis_result serial =
        core::synthesize(m, built.roots, built.names, options);
    EXPECT_TRUE(serial.stats.optimal) << "circuit " << c;
    EXPECT_EQ(nodes.value() > nodes_before, circuits[c].branches)
        << "circuit " << c;
    const std::string serial_text = design_text(serial.design);
    for (const int threads : {2, 8}) {
      options.parallel.threads = threads;
      const core::synthesis_result parallel_result =
          core::synthesize(m, built.roots, built.names, options);
      EXPECT_EQ(design_text(parallel_result.design), serial_text)
          << "circuit " << c << " threads=" << threads;
      EXPECT_EQ(parallel_result.stats.vh_count, serial.stats.vh_count);
      EXPECT_EQ(parallel_result.stats.semiperimeter,
                serial.stats.semiperimeter);
    }
  }
  set_metrics_enabled(was_enabled);
}

}  // namespace
}  // namespace compact
