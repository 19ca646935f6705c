#include "requests.hpp"

#include <chrono>

namespace perfbench {

compact::api::request_v1 make_request(const plan& p, const workload_config& w,
                                      const plan_op& op, const std::string& id,
                                      const std::string& design_text) {
  compact::api::request_v1 req;
  req.id = id;
  req.deadline_seconds = op.deadline;
  switch (op.kind) {
    case op_kind::synthesize:
      req.op = "synthesize";
      req.source.text = p.circuits[static_cast<std::size_t>(op.circuit)].blif;
      req.synthesis.labeler = op.labeler;
      req.synthesis.gamma = op.gamma;
      req.synthesis.time_limit_seconds = w.time_limit;
      break;
    case op_kind::lint:
      req.op = "lint";
      req.source.text = p.circuits[static_cast<std::size_t>(op.circuit)].blif;
      req.design_text = design_text;
      req.lint.labeler = op.labeler;
      req.lint.gamma = op.gamma;
      req.lint.time_limit_seconds = w.time_limit;
      req.lint.electrical = true;
      break;
    case op_kind::evaluate:
      req.op = "evaluate";
      req.design_text = design_text;
      for (const bool bit : op.assignment) req.assignment += bit ? '1' : '0';
      break;
  }
  return req;
}

op_result exchange(line_channel& ch, const compact::api::request_v1& req) {
  op_result r;
  const std::string line = compact::api::to_json(req);
  r.request_bytes = line.size() + 1;
  const auto t0 = std::chrono::steady_clock::now();
  std::string answer;
  if (!ch.send(line) || !ch.receive(answer)) return r;
  r.latency = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                  .count();
  r.response_bytes = answer.size() + 1;
  try {
    r.response = compact::api::response_from_json(answer);
    r.answered = true;
  } catch (const compact::api::error&) {
    r.answered = false;
  }
  return r;
}

const std::string& session_design(const served_sessions& served, int session) {
  static const std::string none;
  const std::vector<op_result>& ops = served[static_cast<std::size_t>(session)];
  if (ops.empty() || !ops[0].answered || !ops[0].response.ok) return none;
  return ops[0].response.design_text;
}

}  // namespace perfbench
