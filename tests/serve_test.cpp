// compact-serve core: the v5 JSON wire format (strict requests, lenient
// responses), admission control (queue-full overload, deadline shedding),
// the stream transport, and bit-identical designs at any thread count.
#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "api/compact_api.hpp"
#include "serve/server.hpp"
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
