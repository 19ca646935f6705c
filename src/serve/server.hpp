// compact-serve core: a batched request executor over the facade v5 schema.
//
// The server owns one api::service (process-wide bounded labeling/partition
// caches) and a util/thread_pool, and turns request_v1 values into
// response_v1 values asynchronously: submit() enqueues a request with a
// completion callback, admission control answers immediately when the
// server is saturated, and per-request latency lands in the util/metrics
// histograms that the daemon reports.
//
// Admission control has two gates:
//   * queue depth — with queue_limit set, a request arriving while that
//     many are already in flight is rejected synchronously with code
//     `overload` (the structured backpressure signal clients retry on);
//   * deadline shedding — a request whose queue wait alone already exceeds
//     its deadline is answered with `deadline_exceeded` without running
//     (the deadline also caps solver effort and arms the util/watchdog
//     inside execution — see request_v1::deadline_seconds).
//
// Completion callbacks run on pool workers (or on the submitting thread for
// rejected requests) and must be thread-safe; run_stream() shows the
// pattern (one mutex around the output stream).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string_view>

#include "api/compact_api.hpp"

namespace compact::serve {

struct server_options {
  /// Pool workers executing requests concurrently. Designs are
  /// bit-identical for any value.
  int threads = 1;
  /// Maximum requests in flight (queued + executing) before submit()
  /// answers `overload`; 0 = unlimited.
  std::size_t queue_limit = 0;
  /// Deadline applied to requests that carry none; 0 = none.
  double default_deadline_seconds = 0.0;
  /// Shared-cache configuration of the underlying api::service.
  api::service_options_v1 service;
};

struct server_stats {
  std::uint64_t submitted = 0;   ///< accepted into the queue
  std::uint64_t completed = 0;   ///< executed (includes shed)
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;      ///< executed with ok = false (includes shed)
  std::uint64_t overloaded = 0;  ///< rejected at admission (never queued)
  std::uint64_t shed = 0;        ///< deadline passed while queued
  std::uint64_t designs = 0;     ///< successful synthesize requests
};

class server {
 public:
  explicit server(const server_options& options = {});
  /// Drains in-flight requests, then joins the pool.
  ~server();
  server(const server&) = delete;
  server& operator=(const server&) = delete;

  using responder = std::function<void(const api::response_v1&)>;

  /// Enqueue one request. `done` is invoked exactly once with the response:
  /// asynchronously on a pool worker, or synchronously on this thread when
  /// admission control rejects the request (code `overload`).
  void submit(api::request_v1 request, responder done);

  /// Block until no requests are in flight.
  void drain();

  [[nodiscard]] std::size_t in_flight() const;
  [[nodiscard]] server_stats stats() const;

  /// The underlying executor (cache stats, direct synchronous handling).
  [[nodiscard]] api::service& service();

 private:
  struct impl;
  std::unique_ptr<impl> impl_;
};

/// The answer to a request line that failed to parse with `message`: code
/// `parse`, carrying the line's top-level "id" when it is a string the JSON
/// reader reaches before any syntax error, so a client with several
/// requests in flight can tell which one failed. Both transports send it.
[[nodiscard]] api::response_v1 parse_failure(std::string_view line,
                                             std::string_view message);

/// Drive a server from a JSON-lines stream: one request per input line, one
/// response per output line (completion order, matched by id; interleaved
/// writes are serialized). Unparseable lines are answered immediately with
/// parse_failure(). Stops after max_requests lines (0 = until EOF), drains,
/// and returns the number of lines consumed. This is the daemon's stdin
/// mode and the in-process transport tests use.
std::size_t run_stream(server& s, std::istream& in, std::ostream& out,
                       std::size_t max_requests = 0);

}  // namespace compact::serve
