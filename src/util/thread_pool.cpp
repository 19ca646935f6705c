#include "util/thread_pool.hpp"

#include <limits>

#include "util/metrics.hpp"
#include "util/stopwatch.hpp"
#include "util/trace.hpp"

namespace compact {

thread_pool::thread_pool(int threads) {
  check(threads >= 1, "thread_pool: need at least one worker");
  workers_.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t)
    workers_.emplace_back([this] { worker_loop(); });
}

thread_pool::~thread_pool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void thread_pool::note_queue_depth(std::size_t depth) {
  if (!metrics_enabled()) return;
  static metric_histogram& queue_depth = global_metrics().histogram(
      "thread_pool.queue_depth", {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0});
  queue_depth.observe(static_cast<double>(depth));
}

void thread_pool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void parallel_for(const parallel_options& options, std::size_t count,
                  const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  const int workers = options.worker_count(count);
  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::mutex failure_mutex;
  std::size_t failure_index = std::numeric_limits<std::size_t>::max();
  std::exception_ptr failure;
  auto runner = [&] {
    const trace_span span("parallel_for.worker", "thread_pool");
    const stopwatch busy;
    std::size_t executed = 0;
    for (std::size_t i = next.fetch_add(1); i < count;
         i = next.fetch_add(1)) {
      ++executed;
      try {
        body(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(failure_mutex);
        // Keep the lowest-indexed failure so the reported exception does
        // not depend on scheduling.
        if (i < failure_index) {
          failure_index = i;
          failure = std::current_exception();
        }
      }
    }
    if (metrics_enabled() && executed > 0) {
      metrics_registry& registry = global_metrics();
      registry.counter("thread_pool.items_executed").add(executed);
      const auto busy_us = static_cast<std::uint64_t>(busy.seconds() * 1e6);
      registry.counter("thread_pool.worker_busy_us").add(busy_us);
      // Per-worker breakdown, keyed by the dense thread slot so the
      // numbers line up with the Chrome trace "tid" column.
      registry
          .counter("thread_pool.worker_busy_us.tid" +
                   std::to_string(current_thread_slot()))
          .add(busy_us);
    }
  };

  thread_pool pool(workers);
  std::vector<std::future<void>> done;
  done.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) done.push_back(pool.submit(runner));
  for (std::future<void>& d : done) d.get();
  if (failure) std::rethrow_exception(failure);
}

}  // namespace compact
