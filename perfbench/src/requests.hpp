// Turning plan ops into facade v5 requests, and what the client records
// about each answered request.
#pragma once

#include <string>
#include <vector>

#include "api/compact_api.hpp"
#include "plan.hpp"
#include "serve_client.hpp"

namespace perfbench {

/// The request for `op`; lint and evaluate ops carry `design_text`, the
/// design their session's synthesize op returned.
[[nodiscard]] compact::api::request_v1 make_request(
    const plan& p, const workload_config& w, const plan_op& op,
    const std::string& id, const std::string& design_text);

struct op_result {
  bool answered = false;
  double latency = 0.0;  // send to response line, client clock
  std::size_t request_bytes = 0;
  std::size_t response_bytes = 0;
  compact::api::response_v1 response;
};

/// Served results parallel to plan::sessions[s].ops.
using served_sessions = std::vector<std::vector<op_result>>;

/// Send one request line on `ch` and wait for its answer, timing it.
[[nodiscard]] op_result exchange(line_channel& ch,
                                 const compact::api::request_v1& req);

/// The design a session's synthesize op returned ("" when it failed).
[[nodiscard]] const std::string& session_design(const served_sessions& served,
                                                int session);

}  // namespace perfbench
