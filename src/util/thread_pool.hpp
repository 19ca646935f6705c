// Deterministic parallel execution primitives.
//
// The COMPACT flow has several embarrassingly parallel stages (per-output
// ROBDD synthesis, Monte-Carlo fault trials, per-circuit benchmark sweeps).
// This module provides a fixed-size worker pool plus parallel_for/
// parallel_map helpers that fan such stages out while keeping results
// *bit-identical* for every thread count: work items are
// independent (randomness comes from rng::substream per item, see
// util/rng.hpp), results are merged back in item order, and a failing item
// always reports the exception of the lowest-indexed failure.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace compact {

/// How a parallel site splits its work. The default (one thread) runs the
/// work inline on the calling thread, preserving the library's historical
/// single-threaded behaviour; values above one enable the pool.
struct parallel_options {
  int threads = 1;

  [[nodiscard]] bool serial() const { return threads <= 1; }

  /// Workers a site should actually spawn for `items` work items.
  [[nodiscard]] int worker_count(std::size_t items) const {
    const int wanted = threads < 1 ? 1 : threads;
    if (items < static_cast<std::size_t>(wanted))
      return static_cast<int>(items);
    return wanted;
  }
};

/// Fixed-size worker pool over a FIFO task queue. Tasks are submitted as
/// callables and observed through std::future; the destructor drains the
/// queue and joins every worker.
class thread_pool {
 public:
  explicit thread_pool(int threads);
  ~thread_pool();
  thread_pool(const thread_pool&) = delete;
  thread_pool& operator=(const thread_pool&) = delete;

  [[nodiscard]] int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueue `task`; the returned future resolves with its result (or
  /// rethrows the exception it raised).
  template <typename F>
  [[nodiscard]] std::future<std::invoke_result_t<F>> submit(F task) {
    using result_t = std::invoke_result_t<F>;
    auto job =
        std::make_shared<std::packaged_task<result_t()>>(std::move(task));
    std::future<result_t> result = job->get_future();
    std::size_t depth = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      check(!stopping_, "thread_pool: submit after shutdown");
      queue_.emplace_back([job] { (*job)(); });
      depth = queue_.size();
    }
    note_queue_depth(depth);
    ready_.notify_one();
    return result;
  }

 private:
  void worker_loop();
  /// Publish the queue depth observed at submit time to the metrics
  /// registry (no-op when metrics are disabled). Out of line so the header
  /// does not pull in util/metrics.
  static void note_queue_depth(std::size_t depth);

  std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

/// Run body(0) .. body(count - 1), fanning out across options.threads
/// workers. Items are claimed dynamically (work stealing via a shared
/// counter) so imbalanced items still load-balance; determinism comes from
/// the items themselves, which must not communicate except through their
/// own index's slot. If any item throws, the exception of the
/// lowest-indexed failing item is rethrown once all workers stop.
void parallel_for(const parallel_options& options, std::size_t count,
                  const std::function<void(std::size_t)>& body);

/// results[i] = fn(i), computed as parallel_for does but collected in item
/// order. T only needs to be movable (not default-constructible).
template <typename Fn>
[[nodiscard]] auto parallel_map(const parallel_options& options,
                                std::size_t count, Fn&& fn)
    -> std::vector<std::decay_t<decltype(fn(std::size_t{0}))>> {
  using T = std::decay_t<decltype(fn(std::size_t{0}))>;
  std::vector<std::optional<T>> slots(count);
  parallel_for(options, count,
               [&](std::size_t i) { slots[i].emplace(fn(i)); });
  std::vector<T> results;
  results.reserve(count);
  for (std::optional<T>& slot : slots) results.push_back(std::move(*slot));
  return results;
}

}  // namespace compact
