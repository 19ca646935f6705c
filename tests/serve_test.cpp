// compact-serve core: the v5 JSON wire format (strict requests, lenient
// responses), admission control (queue-full overload, deadline shedding),
// the stream transport, and bit-identical designs at any thread count.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <future>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "api/compact_api.hpp"
#include "serve/server.hpp"
#include "serve/socket.hpp"
#include "util/json.hpp"

namespace {

namespace api = compact::api;
using compact::serve::run_stream;
using compact::serve::server;
using compact::serve::server_options;

constexpr const char* kMajority =
    ".model majority\n.inputs a b c\n.outputs f\n.names a b c f\n11- 1\n"
    "1-1 1\n-11 1\n.end\n";

api::request_v1 majority_request(const std::string& id) {
  api::request_v1 request;
  request.id = id;
  request.op = "synthesize";
  request.api_version = COMPACT_API_VERSION;
  request.source.text = kMajority;
  request.synthesis.labeler = "oct";
  return request;
}

// --- wire format -----------------------------------------------------------

TEST(ServeTest, RequestJsonRoundTrips) {
  api::request_v1 request = majority_request("req-1");
  request.synthesis.gamma = 0.25;
  request.synthesis.max_rows = 12;
  request.synthesis.partition = true;
  request.deadline_seconds = 2.5;
  request.fail_on = "error";
  request.assignment = "101";
  // Above 2^53: a detour through double would drop the last bit.
  request.synthesis.memory_limit_bytes = (std::uint64_t{1} << 60) + 1;

  const std::string json = api::to_json(request);
  const api::request_v1 parsed = api::request_from_json(json);
  EXPECT_EQ(parsed.id, "req-1");
  EXPECT_EQ(parsed.op, "synthesize");
  EXPECT_EQ(parsed.api_version, COMPACT_API_VERSION);
  EXPECT_EQ(parsed.source.text, kMajority);
  EXPECT_EQ(parsed.synthesis.labeler, "oct");
  EXPECT_DOUBLE_EQ(parsed.synthesis.gamma, 0.25);
  EXPECT_EQ(parsed.synthesis.max_rows, 12);
  EXPECT_TRUE(parsed.synthesis.partition);
  EXPECT_DOUBLE_EQ(parsed.deadline_seconds, 2.5);
  EXPECT_EQ(parsed.fail_on, "error");
  EXPECT_EQ(parsed.assignment, "101");
  EXPECT_EQ(parsed.synthesis.memory_limit_bytes, (std::uint64_t{1} << 60) + 1);
  // Serializing the parsed value must reproduce the exact line.
  EXPECT_EQ(api::to_json(parsed), json);
}

TEST(ServeTest, RequestParsingIsStrict) {
  EXPECT_THROW((void)api::request_from_json("{\"op\":\"synthesize\",\"bogus\":1}"),
               api::parse_error);
  EXPECT_THROW((void)api::request_from_json("not json at all"),
               api::parse_error);
  EXPECT_THROW((void)api::request_from_json("[1,2,3]"), api::parse_error);
  EXPECT_THROW(
      (void)api::request_from_json(
          "{\"op\":\"synthesize\",\"synthesis\":{\"gama\":0.5}}"),
      api::parse_error);
  // Integer fields are checked for integrality and range before any cast,
  // and the error names the field.
  for (const auto& [line, field] :
       std::vector<std::pair<std::string, std::string>>{
           {R"({"op":"synthesize","synthesis":{"threads":1e10}})", "threads"},
           {R"({"op":"synthesize","synthesis":{"memory_limit_bytes":1e30}})",
            "memory_limit_bytes"},
           {R"({"op":"synthesize","synthesis":{"memory_limit_bytes":1.5}})",
            "memory_limit_bytes"}}) {
    try {
      (void)api::request_from_json(line);
      ADD_FAILURE() << "accepted " << line;
    } catch (const api::parse_error& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  }
}

TEST(ServeTest, ResponseJsonRoundTripsAndParsesLeniently) {
  const api::response_v1 out = api::handle(majority_request("round"));
  ASSERT_TRUE(out.ok) << out.error_message;
  const std::string json = api::to_json(out);
  const api::response_v1 parsed = api::response_from_json(json);
  EXPECT_EQ(parsed.id, "round");
  EXPECT_TRUE(parsed.ok);
  EXPECT_EQ(parsed.code, api::error_code_v1::none);
  EXPECT_EQ(parsed.design_text, out.design_text);
  EXPECT_EQ(parsed.stats.rows, out.stats.rows);
  EXPECT_EQ(parsed.output_names, out.output_names);

  // Forward compatibility: a response from a newer library may carry fields
  // this header does not know; they are ignored, not an error.
  const api::response_v1 future = api::response_from_json(
      "{\"id\":\"x\",\"ok\":true,\"code\":\"none\",\"from_the_future\":42}");
  EXPECT_EQ(future.id, "x");
  EXPECT_TRUE(future.ok);
}

// --- admission control -----------------------------------------------------

TEST(ServeTest, QueueFullAnswersStructuredOverload) {
  server_options options;
  options.threads = 1;
  options.queue_limit = 1;
  server s(options);

  // Hold the single slot open: the first request's responder blocks until
  // the overload check below has run, so in_flight stays at 1.
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  std::promise<void> entered;
  s.submit(majority_request("slow"), [&, gate](const api::response_v1&) {
    entered.set_value();
    gate.wait();
  });
  entered.get_future().wait();

  api::response_v1 rejected;
  s.submit(majority_request("extra"),
           [&rejected](const api::response_v1& resp) { rejected = resp; });
  // The overload answer is synchronous: it already happened.
  EXPECT_FALSE(rejected.ok);
  EXPECT_EQ(rejected.code, api::error_code_v1::overload);
  EXPECT_EQ(rejected.id, "extra");
  EXPECT_NE(rejected.error_message.find("queue full"), std::string::npos);

  release.set_value();
  s.drain();
  EXPECT_EQ(s.stats().overloaded, 1u);
}

TEST(ServeTest, DeadlinePassedWhileQueuedIsShed) {
  server_options options;
  options.threads = 1;
  server s(options);

  // Occupy the only worker until the doomed request is safely queued behind
  // it with an already-hopeless deadline.
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  std::promise<void> entered;
  s.submit(majority_request("first"), [&, gate](const api::response_v1&) {
    entered.set_value();
    gate.wait();
  });
  entered.get_future().wait();

  api::request_v1 doomed = majority_request("doomed");
  doomed.deadline_seconds = 1e-9;
  std::promise<api::response_v1> shed_promise;
  s.submit(std::move(doomed), [&shed_promise](const api::response_v1& resp) {
    shed_promise.set_value(resp);
  });
  release.set_value();

  const api::response_v1 shed = shed_promise.get_future().get();
  EXPECT_FALSE(shed.ok);
  EXPECT_EQ(shed.code, api::error_code_v1::deadline_exceeded);
  EXPECT_GT(shed.queue_seconds, 0.0);
  s.drain();
  EXPECT_EQ(s.stats().shed, 1u);
}

TEST(ServeTest, DefaultDeadlineAppliesToBareRequests) {
  server_options options;
  options.threads = 1;
  options.default_deadline_seconds = 1e-9;  // everything queued is late
  server s(options);

  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  std::promise<void> entered;
  s.submit(majority_request("first"), [&, gate](const api::response_v1&) {
    entered.set_value();
    gate.wait();
  });
  entered.get_future().wait();

  std::promise<api::response_v1> done;
  s.submit(majority_request("bare"),
           [&done](const api::response_v1& resp) { done.set_value(resp); });
  release.set_value();
  EXPECT_EQ(done.get_future().get().code,
            api::error_code_v1::deadline_exceeded);
  s.drain();
}

TEST(ServeTest, DestroyingServersWithRequestsInFlightIsSafe) {
  // ~server drains, then its pool joins the workers before the state they
  // signal on (the idle condition variable) is destroyed. A worker can still
  // be inside idle.notify_all() after drain() has seen the last request
  // finish; a -fsanitize=thread build reports a race here when the pool is
  // destroyed after that state.
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> answered{0};
    {
      server_options options;
      options.threads = 2;
      server s(options);
      for (int i = 0; i < 4; ++i)
        s.submit(majority_request(std::to_string(i)),
                 [&answered](const api::response_v1& resp) {
                   if (resp.ok) answered.fetch_add(1);
                 });
    }
    EXPECT_EQ(answered.load(), 4) << "round " << round;
  }
}

// --- determinism across thread counts --------------------------------------

TEST(ServeTest, DesignsBitIdenticalAcrossThreadCounts) {
  constexpr const char* kTexts[] = {
      ".model t0\n.inputs a b c\n.outputs f\n.names a b c f\n11- 1\n1-1 1\n"
      "-11 1\n.end\n",
      ".model t1\n.inputs a b\n.outputs f\n.names a b f\n11 1\n.end\n",
      ".model t2\n.inputs a b c d\n.outputs f\n.names a b c d f\n1100 1\n"
      "0011 1\n1111 1\n.end\n",
  };
  const int kRepeat = 3;

  std::map<std::string, std::string> reference;  // id -> design text
  for (const int threads : {1, 2, 8}) {
    server_options options;
    options.threads = threads;
    server s(options);
    std::mutex mutex;
    std::map<std::string, std::string> designs;
    for (int r = 0; r < kRepeat; ++r) {
      for (std::size_t i = 0; i < std::size(kTexts); ++i) {
        api::request_v1 request;
        // Repeats share the id on purpose.
        request.id = std::string("t").append(std::to_string(i));
        request.op = "synthesize";
        request.source.text = kTexts[i];
        request.synthesis.labeler = "oct";
        s.submit(std::move(request), [&](const api::response_v1& resp) {
          ASSERT_TRUE(resp.ok) << resp.error_message;
          const std::lock_guard<std::mutex> lock(mutex);
          const auto [it, inserted] =
              designs.emplace(resp.id, resp.design_text);
          if (!inserted) {  // cache hit or recompute: same bytes either way
            EXPECT_EQ(it->second, resp.design_text) << resp.id;
          }
        });
      }
    }
    s.drain();
    EXPECT_EQ(s.stats().designs, kRepeat * std::size(kTexts));
    if (reference.empty()) {
      reference = designs;
      // The 1-thread server must agree with direct, uncached execution.
      for (std::size_t i = 0; i < std::size(kTexts); ++i) {
        api::request_v1 direct;
        direct.op = "synthesize";
        direct.source.text = kTexts[i];
        direct.synthesis.labeler = "oct";
        EXPECT_EQ(api::handle(direct).design_text,
                  designs["t" + std::to_string(i)]);
      }
    } else {
      EXPECT_EQ(designs, reference) << "threads=" << threads;
    }
  }
}

// --- stream transport -------------------------------------------------------

TEST(ServeTest, RunStreamAnswersEveryLine) {
  server_options options;
  options.threads = 2;
  server s(options);

  std::stringstream in;
  in << api::to_json(majority_request("a")) << "\n"
     << "this is not json\n"
     << "\n"  // blank lines are skipped, not answered
     << api::to_json(majority_request("b")) << "\n";
  std::stringstream out;
  const std::size_t consumed = run_stream(s, in, out);
  EXPECT_EQ(consumed, 3u);  // two requests + one parse failure

  std::map<std::string, api::response_v1> responses;
  std::size_t parse_failures = 0;
  std::string line;
  while (std::getline(out, line)) {
    const api::response_v1 resp = api::response_from_json(line);
    if (resp.code == api::error_code_v1::parse)
      ++parse_failures;
    else
      responses[resp.id] = resp;
  }
  EXPECT_EQ(parse_failures, 1u);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_TRUE(responses["a"].ok) << responses["a"].error_message;
  EXPECT_TRUE(responses["b"].ok) << responses["b"].error_message;
  EXPECT_EQ(responses["a"].design_text, responses["b"].design_text);
}

// A parse failure keeps the request's id whenever the JSON reader reaches
// it as a string before a syntax error, so clients can match the answer.
std::vector<std::pair<std::string, std::string>> unparseable_lines() {
  return {
      {R"({"id":"x7","op":"lint","synthesis":{"gama":1}})", "x7"},
      {R"({"synthesis":{"gama":1},"id":"x8"})", "x8"},
      {R"({"id":"x9","op":)", "x9"},
      {R"({"op":"lint",,"id":"x10"})", ""},
      {R"({"id":5,"op":"lint"})", ""},
      {"this is not json", ""},
  };
}

TEST(ServeTest, ParseFailureEchoesIdOnTheStream) {
  server s;
  std::stringstream in;
  for (const auto& [line, id] : unparseable_lines()) in << line << "\n";
  std::stringstream out;
  EXPECT_EQ(run_stream(s, in, out), unparseable_lines().size());
  std::string line;
  for (const auto& [request, id] : unparseable_lines()) {
    ASSERT_TRUE(std::getline(out, line)) << request;
    const api::response_v1 resp = api::response_from_json(line);
    EXPECT_EQ(resp.code, api::error_code_v1::parse) << line;
    EXPECT_EQ(resp.id, id) << request;
  }
}

TEST(ServeTest, ParseFailureEchoesIdOnTheSocket) {
  const std::string path = testing::TempDir() + "compact_serve_test_" +
                           std::to_string(::getpid()) + ".sock";
  const std::vector<std::pair<std::string, std::string>> lines =
      unparseable_lines();
  server s;
  compact::serve::socket_options options;
  options.path = path;
  options.max_requests = lines.size();
  std::thread daemon([&] { (void)compact::serve::serve_unix(s, options); });

  int fd = -1;
  for (int attempt = 0; fd < 0 && attempt < 500; ++attempt) {
    try {
      fd = compact::serve::connect_unix(path);
    } catch (const compact::error&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  ASSERT_GE(fd, 0) << "the daemon never listened on " << path;
  // Parse failures are answered on the reader thread, in line order.
  std::string buffer;
  std::string line;
  for (const auto& [request, id] : lines) {
    ASSERT_TRUE(compact::serve::write_line(fd, request));
    ASSERT_TRUE(compact::serve::read_line(fd, buffer, line)) << request;
    const api::response_v1 resp = api::response_from_json(line);
    EXPECT_EQ(resp.code, api::error_code_v1::parse) << line;
    EXPECT_EQ(resp.id, id) << request;
  }
  compact::serve::close_fd(fd);
  daemon.join();
  std::remove(path.c_str());
}

// read_line frames across reads: a 4 MB line (about a thousand 4 KB reads)
// comes back whole, and so does the short line behind it.
TEST(ServeTest, ReadLineFramesALongLineAcrossManyReads) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::string long_line(std::size_t{4} << 20, 'x');
  for (std::size_t i = 0; i < long_line.size(); i += 4093)
    long_line[i] = static_cast<char>('a' + i % 26);
  std::thread writer([&] {
    EXPECT_TRUE(compact::serve::write_line(fds[1], long_line));
    EXPECT_TRUE(compact::serve::write_line(fds[1], "short"));
    compact::serve::close_fd(fds[1]);
  });
  std::string buffer;
  std::string first;
  std::string second;
  std::string after;
  const bool read_first = compact::serve::read_line(fds[0], buffer, first);
  const bool read_second = compact::serve::read_line(fds[0], buffer, second);
  const bool read_after = compact::serve::read_line(fds[0], buffer, after);
  writer.join();
  compact::serve::close_fd(fds[0]);
  ASSERT_TRUE(read_first);
  EXPECT_EQ(first.size(), long_line.size());
  EXPECT_TRUE(first == long_line);
  ASSERT_TRUE(read_second);
  EXPECT_EQ(second, "short");
  EXPECT_FALSE(read_after);
}

// Request lines that crashed the daemon or were misread by the text
// readers get structured answers.
TEST(ServeTest, ReaderCrashLinesGetStructuredAnswers) {
  // A 200,000-gate buffer chain: the BLIF reader emits gates with an
  // explicit stack, so depth costs memory, not thread stack.
  constexpr int depth = 200000;
  std::string chain = ".model chain\n.inputs g0\n.outputs y\n";
  for (int i = 1; i <= depth; ++i)
    chain += ".names g" + std::to_string(i - 1) + " g" + std::to_string(i) +
             "\n1 1\n";
  chain += ".names g" + std::to_string(depth) + " y\n1 1\n.end\n";
  api::request_v1 deep;
  deep.source.text = chain;
  deep.synthesis.labeler = "oct";
  const api::response_v1 built = api::handle(deep);
  ASSERT_TRUE(built.ok) << built.error_message;
  EXPECT_EQ(built.stats.rows, 2);
  EXPECT_EQ(built.stats.columns, 1);

  const auto evaluate = [](const std::string& design,
                           const std::string& assignment) {
    api::request_v1 request;
    request.op = "evaluate";
    request.design_text = design;
    request.assignment = assignment;
    return api::handle(request);
  };
  // A negative variable index: a parse error, not a write to names[-1].
  EXPECT_EQ(evaluate("xbar 1\ndim 1 1\nvar -1 x\ninput 0\noutput 0 y\nend\n",
                     "1")
                .code,
            api::error_code_v1::parse);
  // A device variable beyond the assignment: the request is invalid and the
  // answer names the variable, instead of reading past the assignment.
  for (const auto& [device, assignment, variable] :
       std::vector<std::tuple<std::string, std::string, std::string>>{
           {"+5", "", "variable 5"},
           {"+1000000000", "1", "variable 1000000000"}}) {
    const api::response_v1 out = evaluate(
        "xbar 1\ndim 1 1\ninput 0\noutput 0 y\nd 0 0 " + device + "\nend\n",
        assignment);
    EXPECT_EQ(out.code, api::error_code_v1::invalid_request) << device;
    EXPECT_NE(out.error_message.find(variable), std::string::npos)
        << out.error_message;
  }
  // A number with trailing garbage is malformed, not variable 3.
  const api::response_v1 garbage = evaluate(
      "xbar 1\ndim 1 1\ninput 0\noutput 0 y\nd 0 0 +3x\nend\n", "0001");
  EXPECT_EQ(garbage.code, api::error_code_v1::parse);
  EXPECT_NE(garbage.error_message.find("malformed number"), std::string::npos)
      << garbage.error_message;
}

TEST(ServeTest, ServerSharesCachesAcrossRequests) {
  server s;
  std::promise<api::response_v1> first, second;
  s.submit(majority_request("one"),
           [&first](const api::response_v1& r) { first.set_value(r); });
  ASSERT_TRUE(first.get_future().get().ok);
  s.submit(majority_request("two"),
           [&second](const api::response_v1& r) { second.set_value(r); });
  ASSERT_TRUE(second.get_future().get().ok);
  EXPECT_GT(s.service().stats().label_cache.hits, 0u);
}

TEST(ServeTest, LintAndEvaluateTravelTheWire) {
  server s;
  api::request_v1 lint;
  lint.id = "lint";
  lint.op = "lint";
  lint.source.text = kMajority;
  lint.lint.time_limit_seconds = 5.0;

  std::promise<api::response_v1> done;
  s.submit(std::move(lint),
           [&done](const api::response_v1& r) { done.set_value(r); });
  const api::response_v1 out = done.get_future().get();
  ASSERT_TRUE(out.ok) << out.error_message;
  EXPECT_TRUE(out.lint_ran);
  EXPECT_EQ(out.lint_errors, 0u);

  // The lint summary must survive a JSON round trip.
  const api::response_v1 parsed = api::response_from_json(api::to_json(out));
  EXPECT_TRUE(parsed.lint_ran);
  EXPECT_TRUE(parsed.lint_clean);
}

}  // namespace
