#include "serve/server.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <istream>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>

#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"

namespace compact::serve {
namespace {

using steady_clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(steady_clock::time_point start) {
  return std::chrono::duration<double>(steady_clock::now() - start).count();
}

void observe_latency(double seconds) {
  if (!metrics_enabled()) return;
  // Buckets span sub-millisecond cache hits to minute-class MIP solves.
  static metric_histogram& latency = global_metrics().histogram(
      "serve.latency_seconds", {0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
                                0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
                                120.0});
  latency.observe(seconds);
}

}  // namespace

struct server::impl {
  explicit impl(const server_options& opts)
      : options(opts),
        service(opts.service),
        pool(opts.threads < 1 ? 1 : opts.threads) {}

  server_options options;
  api::service service;

  std::mutex mutex;
  std::condition_variable idle;
  std::size_t in_flight = 0;  // guarded by mutex

  std::atomic<std::uint64_t> submitted{0};
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> succeeded{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> overloaded{0};
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> designs{0};

  // Declared last so it is destroyed first: its destructor joins the
  // workers, which use every member above (a worker may still be inside
  // idle.notify_all() after drain() has seen in_flight reach zero).
  thread_pool pool;

  void finish_one() {
    {
      const std::lock_guard<std::mutex> lock(mutex);
      --in_flight;
    }
    idle.notify_all();
  }
};

server::server(const server_options& options)
    : impl_(std::make_unique<impl>(options)) {}

server::~server() { drain(); }

void server::submit(api::request_v1 request, responder done) {
  impl& state = *impl_;
  if (request.deadline_seconds <= 0.0)
    request.deadline_seconds = state.options.default_deadline_seconds;

  // Admission control: reject synchronously when the queue is full. The
  // caller gets a structured overload response it can surface or retry on —
  // never an unbounded queue.
  {
    std::unique_lock<std::mutex> lock(state.mutex);
    if (state.options.queue_limit != 0 &&
        state.in_flight >= state.options.queue_limit) {
      lock.unlock();
      state.overloaded.fetch_add(1, std::memory_order_relaxed);
      if (metrics_enabled()) {
        static metric_counter& overloads =
            global_metrics().counter("serve.overload_total");
        overloads.increment();
      }
      api::response_v1 resp;
      resp.id = request.id;
      resp.ok = false;
      resp.code = api::error_code_v1::overload;
      resp.error_message =
          "queue full (" + std::to_string(state.options.queue_limit) +
          " requests in flight); retry later";
      done(resp);
      return;
    }
    ++state.in_flight;
    if (metrics_enabled()) {
      static metric_gauge& gauge = global_metrics().gauge("serve.in_flight");
      gauge.set(static_cast<double>(state.in_flight));
    }
  }

  state.submitted.fetch_add(1, std::memory_order_relaxed);
  const steady_clock::time_point arrival = steady_clock::now();
  // The future is deliberately discarded: the responder callback is the
  // result channel, and packaged_task futures do not block on destruction.
  auto pending = state.pool.submit(
      [&state, request = std::move(request), done = std::move(done),
       arrival]() mutable {
        const double queued = seconds_since(arrival);
        api::response_v1 resp;
        if (request.deadline_seconds > 0.0 &&
            queued >= request.deadline_seconds) {
          // Shed: the deadline passed while the request waited its turn.
          // Answer without running — the client has already given up.
          resp.id = request.id;
          resp.ok = false;
          resp.code = api::error_code_v1::deadline_exceeded;
          resp.error_message = "deadline exceeded while queued";
          state.shed.fetch_add(1, std::memory_order_relaxed);
          if (metrics_enabled()) {
            static metric_counter& sheds =
                global_metrics().counter("serve.shed_total");
            sheds.increment();
          }
        } else {
          resp = state.service.handle(request);
        }
        resp.queue_seconds = queued;
        state.completed.fetch_add(1, std::memory_order_relaxed);
        if (resp.ok) {
          state.succeeded.fetch_add(1, std::memory_order_relaxed);
          if (request.op == "synthesize")
            state.designs.fetch_add(1, std::memory_order_relaxed);
        } else {
          state.failed.fetch_add(1, std::memory_order_relaxed);
        }
        if (metrics_enabled()) {
          static metric_counter& requests =
              global_metrics().counter("serve.requests_total");
          requests.increment();
        }
        observe_latency(resp.queue_seconds + resp.service_seconds);
        try {
          done(resp);
        } catch (...) {
          // A failing response writer (closed pipe, dead socket) must not
          // take the worker down; the transport notices on its own.
        }
        state.finish_one();
      });
  (void)pending;
}

void server::drain() {
  impl& state = *impl_;
  std::unique_lock<std::mutex> lock(state.mutex);
  state.idle.wait(lock, [&state] { return state.in_flight == 0; });
}

std::size_t server::in_flight() const {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->in_flight;
}

server_stats server::stats() const {
  const impl& state = *impl_;
  server_stats out;
  out.submitted = state.submitted.load(std::memory_order_relaxed);
  out.completed = state.completed.load(std::memory_order_relaxed);
  out.succeeded = state.succeeded.load(std::memory_order_relaxed);
  out.failed = state.failed.load(std::memory_order_relaxed);
  out.overloaded = state.overloaded.load(std::memory_order_relaxed);
  out.shed = state.shed.load(std::memory_order_relaxed);
  out.designs = state.designs.load(std::memory_order_relaxed);
  return out;
}

api::service& server::service() { return impl_->service; }

api::response_v1 parse_failure(std::string_view line,
                               std::string_view message) {
  api::response_v1 resp;
  resp.ok = false;
  resp.code = api::error_code_v1::parse;
  resp.error_message = message;
  try {  // the id is best effort: scan members until the first syntax error
    json::reader in(line);
    bool found = false;
    in.object([&](std::string_view key) {
      if (!found && key == "id" && in.peek() == json::kind::string) {
        resp.id = in.string();
        found = true;
      } else {
        in.skip();
      }
    });
  } catch (const compact::parse_error&) {
  }
  return resp;
}

std::size_t run_stream(server& s, std::istream& in, std::ostream& out,
                       std::size_t max_requests) {
  std::mutex write_mutex;
  const auto emit = [&write_mutex, &out](const api::response_v1& resp) {
    const std::lock_guard<std::mutex> lock(write_mutex);
    out << api::to_json(resp) << '\n' << std::flush;
  };

  std::size_t consumed = 0;
  std::string line;
  while ((max_requests == 0 || consumed < max_requests) &&
         std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    ++consumed;
    api::request_v1 request;
    try {
      request = api::request_from_json(line);
    } catch (const api::parse_error& e) {
      emit(parse_failure(line, e.what()));
      continue;
    }
    s.submit(std::move(request), emit);
  }
  // All responders write to `out` through emit's references; drain before
  // they dangle.
  s.drain();
  return consumed;
}

}  // namespace compact::serve
