// Request execution: the service handle, the one-shot handle(), and the
// structured error-code taxonomy. The service owns the process-wide
// labeling / partition caches (bounded via util/bounded_memo), packages the
// run functions' results (api/run) into responses, and maps every exception
// they can throw into a response code — handle() never throws, so a batch
// of requests degrades per-request.
#include <atomic>
#include <cstdint>
#include <exception>
#include <string>
#include <utility>

#include "api/compact_api.hpp"
#include "api/run.hpp"
#include "core/label_cache.hpp"
#include "core/partition.hpp"
#include "util/stopwatch.hpp"
#include "verify/diagnostics.hpp"

namespace compact::api {

const char* error_code_name(error_code_v1 code) {
  switch (code) {
    case error_code_v1::none:
      return "none";
    case error_code_v1::invalid_request:
      return "invalid_request";
    case error_code_v1::parse:
      return "parse";
    case error_code_v1::infeasible:
      return "infeasible";
    case error_code_v1::resource_limit:
      return "resource_limit";
    case error_code_v1::deadline_exceeded:
      return "deadline_exceeded";
    case error_code_v1::overload:
      return "overload";
    case error_code_v1::version_mismatch:
      return "version_mismatch";
    case error_code_v1::internal:
      return "internal";
  }
  return "internal";
}

std::optional<error_code_v1> parse_error_code(const std::string& name) {
  for (const error_code_v1 code :
       {error_code_v1::none, error_code_v1::invalid_request,
        error_code_v1::parse, error_code_v1::infeasible,
        error_code_v1::resource_limit, error_code_v1::deadline_exceeded,
        error_code_v1::overload, error_code_v1::version_mismatch,
        error_code_v1::internal})
    if (name == error_code_name(code)) return code;
  return std::nullopt;
}

struct service::impl {
  service_options_v1 options;
  core::labeling_cache label_cache;
  core::partition_cache partition_cache;
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> succeeded{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> designs{0};

  [[nodiscard]] run_caches caches() {
    run_caches c;
    if (options.share_label_cache) c.label = &label_cache;
    if (options.share_partition_cache) c.partition = &partition_cache;
    return c;
  }
};

namespace {

// Both caches expose structurally identical counters (distinct bounded_memo
// instantiations), hence the template.
template <typename Counters>
[[nodiscard]] cache_stats_v1 to_cache_stats(const Counters& c) {
  cache_stats_v1 out;
  out.hits = c.hits;
  out.misses = c.misses;
  out.entries = c.entries;
  out.evictions = c.evictions;
  out.content_bytes = c.content_bytes;
  return out;
}

[[nodiscard]] diagnostic_v1 to_diagnostic(const verify::diagnostic& d) {
  diagnostic_v1 out;
  out.check = d.check_id;
  out.severity = verify::severity_name(d.level);
  out.message = d.message;
  out.fix = d.fix;
  for (const verify::entity& e : d.anchors)
    out.anchors.push_back(verify::to_string(e));
  return out;
}

/// Execute the request body (everything between admission and accounting),
/// filling the op-specific response sections. Throws the facade hierarchy;
/// the caller maps exceptions to codes.
void execute(const run_caches& caches, const request_v1& request,
             response_v1& resp) {
  if (request.op == "synthesize") {
    const run_result out = run_synthesize(request, caches);
    resp.design_text = out.mapped.to_text();
    resp.output_names = out.mapped.output_names();
    resp.has_stats = true;
    resp.stats = to_stats(out.stats);
    if (out.validation) resp.validation = to_check_result(*out.validation);
    if (out.verification) {
      resp.verification = to_check_result(*out.verification);
      for (const verify::diagnostic& d : out.verification->diagnostics())
        resp.diagnostics.push_back(to_diagnostic(d));
    }
    resp.code = error_code_v1::none;
    return;
  }
  if (request.op == "lint") {
    const std::optional<verify::severity> fail_on =
        verify::parse_severity(request.fail_on);
    if (!fail_on)
      throw error("unknown fail_on severity '" + request.fail_on +
                  "' (expected note, warning, or error)");
    const run_result out = run_lint(request, caches);
    const verify::report& report = *out.verification;
    resp.lint_ran = true;
    resp.lint_clean = report.clean(*fail_on);
    resp.lint_errors = report.error_count();
    resp.lint_warnings = report.warning_count();
    resp.lint_notes = report.note_count();
    if (const auto& e = out.analysis.electrical) {
      resp.electrical_ran = true;
      resp.electrically_safe = e->safe;
      resp.min_margin_ratio = e->min_margin_ratio;
    }
    if (const auto& c = out.analysis.criticality) {
      resp.criticality_ran = true;
      resp.junctions_analyzed = c->junction_count;
      resp.critical_junctions = c->critical_count;
      resp.criticality_truncated = c->truncated;
    }
    for (const verify::diagnostic& d : report.diagnostics())
      resp.diagnostics.push_back(to_diagnostic(d));
    resp.code = error_code_v1::none;
    return;
  }
  if (request.op == "evaluate") {
    if (request.design_text.empty())
      throw error("evaluate needs design_text");
    const design d = design::from_text(request.design_text);
    std::vector<bool> assignment;
    assignment.reserve(request.assignment.size());
    for (const char c : request.assignment) {
      if (c != '0' && c != '1')
        throw error("assignment must be a string of '0'/'1' bits");
      assignment.push_back(c == '1');
    }
    const std::vector<bool> sensed = d.evaluate(assignment);
    resp.outputs.reserve(sensed.size());
    for (const bool bit : sensed) resp.outputs += bit ? '1' : '0';
    resp.output_names = d.output_names();
    resp.code = error_code_v1::none;
    return;
  }
  throw error("unknown op '" + request.op +
              "' (expected synthesize, lint, or evaluate)");
}

}  // namespace

synthesis_stats_v1 to_stats(const core::synthesis_stats& s) {
  synthesis_stats_v1 out;
  out.graph_nodes = s.graph_nodes;
  out.vh_count = s.vh_count;
  out.rows = s.rows;
  out.columns = s.columns;
  out.semiperimeter = s.semiperimeter;
  out.max_dimension = s.max_dimension;
  out.area = s.area;
  out.power_proxy = s.power_proxy;
  out.delay_steps = s.delay_steps;
  out.optimal = s.optimal;
  out.relative_gap = s.relative_gap;
  out.synthesis_seconds = s.synthesis_seconds;
  out.arrays = s.arrays;
  out.cut_edges = s.cut_edges;
  out.bridge_connections = s.bridges;
  out.total_semiperimeter = s.semiperimeter;
  return out;
}

check_result_v1 to_check_result(const xbar::equivalence_report& r) {
  check_result_v1 out;
  out.ran = true;
  out.passed = r.equivalent;
  out.detail = xbar::verdict_text(r);
  return out;
}

check_result_v1 to_check_result(const verify::report& r) {
  check_result_v1 out;
  out.ran = true;
  out.passed = r.clean();
  out.detail = std::to_string(r.error_count()) + " error(s), " +
               std::to_string(r.warning_count()) + " warning(s), " +
               std::to_string(r.note_count()) + " note(s); " +
               std::to_string(r.checks_run().size()) + " checks run";
  return out;
}

service::service(const service_options_v1& options)
    : impl_(std::make_unique<impl>()) {
  impl_->options = options;
  if (options.cache_memory_limit_bytes > 0) {
    // Split the combined budget evenly across the enabled caches. The
    // partition cache stores small plans; an even split still bounds both.
    const int shared = (options.share_label_cache ? 1 : 0) +
                       (options.share_partition_cache ? 1 : 0);
    if (shared > 0) {
      const std::uint64_t each = options.cache_memory_limit_bytes /
                                 static_cast<std::uint64_t>(shared);
      if (options.share_label_cache)
        impl_->label_cache.set_capacity_bytes(each);
      if (options.share_partition_cache)
        impl_->partition_cache.set_capacity_bytes(each);
    }
  }
}

service::~service() = default;

response_v1 service::handle(const request_v1& request) {
  response_v1 resp;
  resp.id = request.id;
  const stopwatch clock;
  impl_->requests.fetch_add(1, std::memory_order_relaxed);
  try {
    if (request.api_version != 0 && request.api_version != api_version()) {
      resp.code = error_code_v1::version_mismatch;
      resp.error_message =
          "request targets api version " + std::to_string(request.api_version) +
          " but the library implements version " + std::to_string(api_version());
    } else {
      execute(impl_->caches(), request, resp);
    }
  } catch (const parse_error& e) {
    resp.code = error_code_v1::parse;
    resp.error_message = e.what();
  } catch (const infeasible_error& e) {
    resp.code = error_code_v1::infeasible;
    resp.error_message = e.what();
  } catch (const resource_limit_error& e) {
    resp.code = e.limit_kind() == resource_limit_error::kind::deadline
                    ? error_code_v1::deadline_exceeded
                    : error_code_v1::resource_limit;
    resp.error_message = e.what();
  } catch (const error& e) {
    // The facade's generic error means the request itself was unusable (bad
    // option value, missing field, unknown op) — a client error.
    resp.code = error_code_v1::invalid_request;
    resp.error_message = e.what();
  } catch (const std::exception& e) {
    resp.code = error_code_v1::internal;
    resp.error_message = e.what();
  } catch (...) {
    resp.code = error_code_v1::internal;
    resp.error_message = "unknown failure";
  }
  resp.ok = resp.code == error_code_v1::none;
  resp.service_seconds = clock.seconds();
  if (resp.ok) {
    impl_->succeeded.fetch_add(1, std::memory_order_relaxed);
    if (request.op == "synthesize")
      impl_->designs.fetch_add(1, std::memory_order_relaxed);
  } else {
    impl_->failed.fetch_add(1, std::memory_order_relaxed);
  }
  return resp;
}

service_stats_v1 service::stats() const {
  service_stats_v1 out;
  out.requests = impl_->requests.load(std::memory_order_relaxed);
  out.succeeded = impl_->succeeded.load(std::memory_order_relaxed);
  out.failed = impl_->failed.load(std::memory_order_relaxed);
  out.designs = impl_->designs.load(std::memory_order_relaxed);
  out.label_cache = to_cache_stats(impl_->label_cache.stats());
  out.partition_cache = to_cache_stats(impl_->partition_cache.stats());
  return out;
}

void service::clear_caches() {
  impl_->label_cache.clear();
  impl_->partition_cache.clear();
}

response_v1 handle(const request_v1& request) {
  service one_shot;
  return one_shot.handle(request);
}

}  // namespace compact::api
