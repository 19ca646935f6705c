// Byte accounting, resource watchdog, and flight recorder tests: the
// accounts reconcile (owners drain on destruction, peaks bound live), the
// watchdog trips structurally at checkpoints, the flight ring survives
// concurrent writers, and — the subsystem's core contract — designs stay
// byte-identical with every observer enabled.
#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bdd/manager.hpp"
#include "core/compact.hpp"
#include "core/label_cache.hpp"
#include "frontend/benchgen.hpp"
#include "util/flight_recorder.hpp"
#include "util/json.hpp"
#include "util/memtrack.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"
#include "util/watchdog.hpp"
#include "xbar/serialize.hpp"

namespace compact {
namespace {

// Restores every observability flag and clears accumulated state so these
// tests cannot leak byte charges or ring events into unrelated tests.
struct memtrack_sandbox {
  memtrack_sandbox() {
    memtrack_reset();
    flight_reset();
  }
  ~memtrack_sandbox() {
    set_memtrack_enabled(false);
    set_flight_recorder_enabled(false);
    set_span_stack_tracking(false);
    set_metrics_enabled(false);
    set_flight_record_path("");
    memtrack_reset();
    flight_reset();
    global_metrics().reset();
  }
};

// --------------------------------------------------------------------------
// mem_account primitives.

TEST(MemtrackTest, AccountTracksLivePeakAndReset) {
  memtrack_sandbox sandbox;
  set_memtrack_enabled(true);
  mem_account& a = memtrack_account("test.account");
  a.add(100);
  a.add(50);
  EXPECT_EQ(a.live(), 150u);
  EXPECT_EQ(a.peak(), 150u);
  a.sub(120);
  EXPECT_EQ(a.live(), 30u);
  EXPECT_EQ(a.peak(), 150u);  // peak is a high-water mark
  EXPECT_GE(a.peak(), a.live());
  EXPECT_EQ(memtrack_process_live(), 30u);
  EXPECT_EQ(memtrack_process_peak(), 150u);
  a.reset();
  EXPECT_EQ(a.live(), 0u);
  EXPECT_EQ(a.peak(), 0u);
  EXPECT_EQ(memtrack_process_live(), 0u);
}

TEST(MemtrackTest, AccountSetReconcilesAndDrainsWhenDisabled) {
  memtrack_sandbox sandbox;
  set_memtrack_enabled(true);
  mem_account& a = memtrack_account("test.reconcile");
  std::uint64_t accounted = 0;
  account_set(a, accounted, 1000);
  EXPECT_EQ(a.live(), 1000u);
  EXPECT_EQ(accounted, 1000u);
  account_set(a, accounted, 400);  // shrink reconciles downward
  EXPECT_EQ(a.live(), 400u);
  // After a mid-run disable the next reconcile drains the charge entirely.
  set_memtrack_enabled(false);
  account_set(a, accounted, 5000);
  EXPECT_EQ(a.live(), 0u);
  EXPECT_EQ(accounted, 0u);
}

TEST(MemtrackTest, ScopedMemReleasesExactlyWhatItCharged) {
  memtrack_sandbox sandbox;
  set_memtrack_enabled(true);
  mem_account& a = memtrack_account("test.scoped");
  {
    const scoped_mem charge(a, 4096);
    EXPECT_EQ(a.live(), 4096u);
    // A mid-scope disable must not desynchronize the release.
    set_memtrack_enabled(false);
  }
  EXPECT_EQ(a.live(), 0u);
  {
    const scoped_mem charge(a, 4096);  // constructed while disabled
    EXPECT_EQ(a.live(), 0u);
  }
  EXPECT_EQ(a.live(), 0u);
}

TEST(MemtrackTest, AccountGuardDrainsOnDestruction) {
  memtrack_sandbox sandbox;
  set_memtrack_enabled(true);
  mem_account& a = memtrack_account("test.guard");
  {
    account_guard guard(a);
    guard.set(700);
    EXPECT_EQ(a.live(), 700u);
    guard.set(300);
    EXPECT_EQ(a.live(), 300u);
    // Destruction drains the residual charge even without a final set(0) —
    // the exception-safety property the branch-and-bound queue relies on.
  }
  EXPECT_EQ(a.live(), 0u);
}

// --------------------------------------------------------------------------
// Owner reconciliation: the BDD manager and the labeling cache.

TEST(MemtrackTest, BddManagerAccountsDrainToZeroOnDestruction) {
  memtrack_sandbox sandbox;
  set_memtrack_enabled(true);
  {
    bdd::manager m(8);
    bdd::node_handle f = m.var(0);
    for (int i = 1; i < 8; ++i) f = m.apply_and(f, m.var(i));
    EXPECT_GT(memtrack_account("bdd.arena").live(), 0u);
    EXPECT_GT(memtrack_account("bdd.unique_table").live(), 0u);
    EXPECT_GT(memtrack_process_live(), 0u);
    EXPECT_GE(memtrack_account("bdd.arena").peak(),
              memtrack_account("bdd.arena").live());
  }
  // The manager's destructor releases every byte it charged.
  EXPECT_EQ(memtrack_account("bdd.arena").live(), 0u);
  EXPECT_EQ(memtrack_account("bdd.unique_table").live(), 0u);
  EXPECT_EQ(memtrack_account("bdd.ite_cache").live(), 0u);
  EXPECT_EQ(memtrack_process_live(), 0u);
  EXPECT_GT(memtrack_process_peak(), 0u);  // the peak survives as evidence
}

TEST(MemtrackTest, FreshBddManagerHoldsASmallComputedTable) {
  // A served request's SBDD holds tens of nodes; its manager's ite() cache
  // starts at 2^10 entries and grows only under miss pressure.
  memtrack_sandbox sandbox;
  set_memtrack_enabled(true);
  const bdd::manager m(16);
  EXPECT_LE(memtrack_account("bdd.ite_cache").live(), 16u * 1024u);
}

TEST(MemtrackTest, GarbageCollectionKeepsAccountsReconciled) {
  memtrack_sandbox sandbox;
  set_memtrack_enabled(true);
  bdd::manager m(12);
  // Build a pile of garbage: conjunctions that nothing roots.
  for (int i = 0; i + 1 < 12; ++i)
    (void)m.apply_and(m.var(i), m.var(i + 1));
  const std::uint64_t table_before =
      memtrack_account("bdd.unique_table").live();
  ASSERT_GT(table_before, 0u);
  (void)m.collect_garbage();
  // Post-GC live never exceeds the pre-GC figure or the recorded peak
  // (arena chunks are recycled, not freed, so only table/cache can shrink).
  const std::uint64_t table_after = memtrack_account("bdd.unique_table").live();
  EXPECT_LE(table_after, table_before);
  EXPECT_LE(table_after, memtrack_account("bdd.unique_table").peak());
  EXPECT_LE(memtrack_process_live(), memtrack_process_peak());
}

TEST(MemtrackTest, LabelingCacheChargesOnStoreAndDrainsOnClear) {
  memtrack_sandbox sandbox;
  set_memtrack_enabled(true);
  mem_account& account = memtrack_account("cache.labeling");
  const std::uint64_t baseline = account.live();
  core::labeling_cache cache;
  core::label_cache_key key;
  key.digest = 0x1234;
  key.canonical = "test-canonical-key";
  core::cached_labeling entry;
  cache.store(key, entry);
  EXPECT_GT(account.live(), baseline);
  ASSERT_TRUE(cache.find(key).has_value());
  cache.clear();
  // clear() returns the account exactly to its baseline (well within the
  // 1%-reconciliation acceptance bound).
  EXPECT_EQ(account.live(), baseline);
}

// --------------------------------------------------------------------------
// Resource watchdog.

TEST(WatchdogTest, CheckpointIsInertWithNoActiveScope) {
  memtrack_sandbox sandbox;
  EXPECT_FALSE(resource_limits_active());
  EXPECT_EQ(resource_checkpoint("test.site"), resource_pressure::none);
}

TEST(WatchdogTest, MemoryLimitReportsSoftPressureThenTrips) {
  memtrack_sandbox sandbox;
  set_memtrack_enabled(false);
  resource_limits limits;
  limits.memory_limit_bytes = 1000;
  const resource_limit_scope scope(limits);
  ASSERT_TRUE(scope.installed());
  EXPECT_TRUE(resource_limits_active());
  // A memory budget force-enables byte accounting for the scope.
  EXPECT_TRUE(memtrack_enabled());

  mem_account& a = memtrack_account("test.watchdog");
  a.add(500);
  EXPECT_EQ(resource_checkpoint("test.site.under"), resource_pressure::none);
  a.add(400);  // 900 live > 850 = soft_fraction * limit
  EXPECT_EQ(resource_checkpoint("test.site.soft"),
            resource_pressure::soft_memory);
  a.add(200);  // 1100 live > 1000 hard limit
  try {
    (void)resource_checkpoint("test.site.hard");
    FAIL() << "expected resource_limit_error";
  } catch (const resource_limit_error& e) {
    EXPECT_EQ(e.limit_kind(), resource_limit_error::kind::memory);
    EXPECT_STREQ(e.kind_name(), "memory");
    // The message names the sampling site so a report is actionable.
    EXPECT_NE(std::string(e.what()).find("test.site.hard"), std::string::npos);
  }
}

TEST(WatchdogTest, DeadlineTripsAfterItPasses) {
  memtrack_sandbox sandbox;
  resource_limits limits;
  limits.deadline_seconds = 1e-4;
  const resource_limit_scope scope(limits);
  ASSERT_TRUE(scope.installed());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  try {
    (void)resource_checkpoint("test.deadline.site");
    FAIL() << "expected resource_limit_error";
  } catch (const resource_limit_error& e) {
    EXPECT_EQ(e.limit_kind(), resource_limit_error::kind::deadline);
    EXPECT_STREQ(e.kind_name(), "deadline");
  }
}

TEST(WatchdogTest, NestedScopesAreInertAndFlagsRestore) {
  memtrack_sandbox sandbox;
  set_memtrack_enabled(false);
  resource_limits limits;
  limits.memory_limit_bytes = 1u << 30;
  {
    const resource_limit_scope outer(limits);
    ASSERT_TRUE(outer.installed());
    const resource_limit_scope inner(limits);
    EXPECT_FALSE(inner.installed());  // outermost wins; one shared budget
    EXPECT_TRUE(resource_limits_active());
  }
  EXPECT_FALSE(resource_limits_active());
  // The force-enabled memtrack flag is restored on scope exit.
  EXPECT_FALSE(memtrack_enabled());
  // A scope with no budgets at all installs nothing.
  const resource_limit_scope empty(resource_limits{});
  EXPECT_FALSE(empty.installed());
  EXPECT_FALSE(resource_limits_active());
}

TEST(WatchdogTest, SynthesisHonorsMemoryLimitOption) {
  memtrack_sandbox sandbox;
  core::synthesis_options options;
  options.labeler = "oct";
  options.memory_limit_bytes = 1024;  // far below any real run's footprint
  EXPECT_THROW(
      (void)core::synthesize(frontend::make_comparator(8), options),
      resource_limit_error);
  EXPECT_FALSE(resource_limits_active());  // the scope unwound with the throw
}

// --------------------------------------------------------------------------
// Flight recorder.

TEST(FlightRecorderTest, DisabledRecordsNothing) {
  memtrack_sandbox sandbox;
  set_flight_recorder_enabled(false);
  flight_record("test.kind", "ignored");
  EXPECT_EQ(flight_recorded_count(), 0u);
  EXPECT_TRUE(flight_snapshot().empty());
}

TEST(FlightRecorderTest, SnapshotReturnsEventsOldestFirst) {
  memtrack_sandbox sandbox;
  set_flight_recorder_enabled(true);
  flight_record("test.a", "first");
  flight_record("test.b", "second");
  flight_record("test.c", "third");
  EXPECT_EQ(flight_recorded_count(), 3u);
  const std::vector<flight_event> events = flight_snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, "test.a");
  EXPECT_EQ(events[0].detail, "first");
  EXPECT_EQ(events[2].kind, "test.c");
  EXPECT_LT(events[0].sequence, events[2].sequence);
  EXPECT_LE(events[0].timestamp_us, events[2].timestamp_us);
}

TEST(FlightRecorderTest, RingOverwritesOldestPastCapacity) {
  memtrack_sandbox sandbox;
  set_flight_recorder_enabled(true);
  const std::size_t capacity = flight_recorder_capacity();
  const std::size_t total = capacity + 17;
  for (std::size_t i = 0; i < total; ++i)
    flight_record("test.overwrite", "event " + std::to_string(i));
  EXPECT_EQ(flight_recorded_count(), total);
  const std::vector<flight_event> events = flight_snapshot();
  EXPECT_EQ(events.size(), capacity);
  // The survivors are the newest `capacity` events, still oldest first.
  EXPECT_EQ(events.front().detail, "event 17");
  EXPECT_EQ(events.back().detail, "event " + std::to_string(total - 1));
}

TEST(FlightRecorderTest, LongTextIsTruncatedNotCorrupted) {
  memtrack_sandbox sandbox;
  set_flight_recorder_enabled(true);
  const std::string long_detail(1000, 'x');
  flight_record("test.truncation.with.a.very.long.kind.tag", long_detail);
  const std::vector<flight_event> events = flight_snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_FALSE(events[0].detail.empty());
  EXPECT_LT(events[0].detail.size(), long_detail.size());
  EXPECT_EQ(events[0].detail,
            long_detail.substr(0, events[0].detail.size()));
  EXPECT_EQ(events[0].kind, std::string("test.truncation.with.a.very.long."
                                        "kind.tag")
                                .substr(0, events[0].kind.size()));
}

TEST(FlightRecorderTest, PostmortemJsonParsesAndEmbedsState) {
  memtrack_sandbox sandbox;
  set_flight_recorder_enabled(true);
  set_memtrack_enabled(true);
  memtrack_account("test.postmortem").add(4096);
  flight_record("test.kind", "the event before the crash");
  std::ostringstream os;
  write_flight_postmortem(os, "unit-test failure");
  const json::value_ptr doc = json::parse(os.str());
  EXPECT_EQ(doc->at("reason").as_string(), "unit-test failure");
  EXPECT_TRUE(doc->at("recorder_enabled").as_bool());
  EXPECT_GE(doc->at("recorded").as_number(), 1.0);
  const auto& events = doc->at("events").as_array();
  ASSERT_GE(events.size(), 1u);
  EXPECT_EQ(events.back()->at("kind").as_string(), "test.kind");
  const json::value& memory = doc->at("memory");
  EXPECT_GE(memory.at("process_bytes").as_number(), 4096.0);
  EXPECT_EQ(memory.at("accounts").at("test.postmortem").at("bytes")
                .as_number(),
            4096.0);
  memtrack_account("test.postmortem").reset();
}

// --------------------------------------------------------------------------
// Span-stack tracking (what the postmortem's active_spans reports).

TEST(SpanStackTest, TracksNestingAndClearsOnExit) {
  memtrack_sandbox sandbox;
  set_span_stack_tracking(true);
  {
    const trace_span outer("outer_work", "test");
    {
      const trace_span inner("inner_work", "test");
      const std::vector<std::string> spans = active_spans();
      ASSERT_EQ(spans.size(), 2u);
      EXPECT_EQ(spans[0], "outer_work");  // outermost first
      EXPECT_EQ(spans[1], "inner_work");
    }
    EXPECT_EQ(active_spans().size(), 1u);
  }
  EXPECT_TRUE(active_spans().empty());
  // Spans on another thread never leak into this thread's stack.
  std::thread([] {
    const trace_span worker("worker_span", "test");
    EXPECT_EQ(active_spans().size(), 1u);
  }).join();
  EXPECT_TRUE(active_spans().empty());
}

TEST(SpanStackTest, DisabledTrackingRecordsNothing) {
  memtrack_sandbox sandbox;
  set_span_stack_tracking(false);
  const trace_span span("untracked", "test");
  EXPECT_TRUE(active_spans().empty());
}

// --------------------------------------------------------------------------
// Concurrency (these suites run under TSan in CI).

TEST(ParallelMemtrackTest, ConcurrentAddSubStaysConsistent) {
  memtrack_sandbox sandbox;
  set_memtrack_enabled(true);
  mem_account& a = memtrack_account("test.concurrent");
  constexpr int threads = 8;
  constexpr int rounds = 2000;
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int t = 0; t < threads; ++t)
    workers.emplace_back([&a] {
      for (int i = 0; i < rounds; ++i) {
        a.add(64);
        a.sub(64);
      }
    });
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(a.live(), 0u);
  EXPECT_GE(a.peak(), 64u);
  EXPECT_LE(a.peak(), 64u * threads);
  EXPECT_EQ(memtrack_process_live(), 0u);
}

TEST(ParallelFlightRecorderTest, ConcurrentRecordingIsSafeAndCounted) {
  memtrack_sandbox sandbox;
  set_flight_recorder_enabled(true);
  constexpr int threads = 8;
  constexpr int per_thread = 500;
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int t = 0; t < threads; ++t)
    workers.emplace_back([t] {
      for (int i = 0; i < per_thread; ++i) {
        // Built with += rather than operator+ chains; GCC 12's -Wrestrict
        // misfires on the temporary-chaining form.
        std::string detail = "t";
        detail += std::to_string(t);
        detail += " e";
        detail += std::to_string(i);
        flight_record("test.parallel", detail);
      }
    });
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(flight_recorded_count(),
            static_cast<std::uint64_t>(threads) * per_thread);
  // Every slot the snapshot recovers is internally consistent (a torn slot
  // would surface as a mismatched or garbled kind).
  const std::vector<flight_event> events = flight_snapshot();
  EXPECT_LE(events.size(), flight_recorder_capacity());
  EXPECT_FALSE(events.empty());
  for (const flight_event& e : events) {
    EXPECT_EQ(e.kind, "test.parallel");
    EXPECT_EQ(e.detail.substr(0, 1), "t");
  }
}

// --------------------------------------------------------------------------
// The subsystem's core contract: observers never change the result.

TEST(ParallelMemtrackTest, DesignsAreByteIdenticalWithAllObserversOn) {
  memtrack_sandbox sandbox;
  const frontend::network net = frontend::make_decoder(4);

  const auto run = [&net](int threads, bool observers) {
    core::synthesis_options options;
    options.labeler = "oct";
    options.parallel.threads = threads;
    options.separate_robdds = true;
    if (observers)
      options.memory_limit_bytes = 1ull << 40;  // generous: never trips
    const core::synthesis_result r = core::synthesize(net, options);
    std::ostringstream os;
    xbar::write_design(r.design, os);
    return os.str();
  };

  for (const int threads : {1, 2, 8}) {
    set_memtrack_enabled(false);
    set_flight_recorder_enabled(false);
    set_span_stack_tracking(false);
    const std::string off = run(threads, /*observers=*/false);

    set_memtrack_enabled(true);
    set_flight_recorder_enabled(true);
    set_span_stack_tracking(true);
    memtrack_reset();
    flight_reset();
    const std::string on = run(threads, /*observers=*/true);

    EXPECT_EQ(off, on) << "design changed with observers on, threads="
                       << threads;
    // The instrumented run actually observed something.
    EXPECT_GT(memtrack_process_peak(), 0u);
    EXPECT_GT(flight_recorded_count(), 0u);
  }
}

}  // namespace
}  // namespace compact
