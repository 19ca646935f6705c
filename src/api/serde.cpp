// JSON-lines serialization of the v5 request/response schema.
//
// One request or response per line, UTF-8, no embedded newlines (the
// escaper escapes control characters) — the wire format of compact-serve
// and the replay format of compact_loadgen. Writers append every field into
// one buffer; readers pull values with json::reader straight into the
// structs, without a document tree.
//
// Requests parse strictly: unknown fields, values of the wrong kind and a
// key repeated in one object are errors, so typos fail loudly at the server
// boundary. Responses parse leniently: unknown fields are skipped, so a v5
// client keeps working against a server that appends fields in v6, and a
// repeated key's last copy wins. Integer fields are range-checked before
// any cast and cross the wire exactly.
#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "api/compact_api.hpp"
#include "util/json.hpp"

namespace compact::api {
namespace {

// -------------------------------------------------------------------------
// Writers

/// Appends one JSON object's `"key":value` members to a shared buffer.
class object_writer {
 public:
  explicit object_writer(std::string& out) : out_(out) { out_ += '{'; }

  // Without this overload a string literal would convert to bool.
  object_writer& field(const char* key, const char* value) {
    return field(key, std::string_view(value));
  }
  object_writer& field(const char* key, std::string_view value) {
    name(key);
    out_ += '"';
    json::append_escaped(out_, value);
    out_ += '"';
    return *this;
  }
  object_writer& field(const char* key, bool value) {
    name(key);
    out_ += value ? "true" : "false";
    return *this;
  }
  object_writer& field(const char* key, double value) {
    name(key);
    json::append_number(out_, value);
    return *this;
  }
  /// Integer fields are written from the integer, so every digit survives.
  template <typename Int, typename = std::enable_if_t<std::is_integral_v<Int>>>
  object_writer& field(const char* key, Int value) {
    name(key);
    json::append_integer(out_, value);
    return *this;
  }
  object_writer& names(const char* key, const std::vector<std::string>& list) {
    name(key);
    out_ += '[';
    for (std::size_t i = 0; i < list.size(); ++i) {
      if (i != 0) out_ += ',';
      out_ += '"';
      json::append_escaped(out_, list[i]);
      out_ += '"';
    }
    out_ += ']';
    return *this;
  }
  /// Write `"key":` and return the buffer for a nested value.
  std::string& nested(const char* key) {
    name(key);
    return out_;
  }
  void close() { out_ += '}'; }

 private:
  void name(const char* key) {
    if (!first_) out_ += ',';
    first_ = false;
    out_ += '"';
    out_ += key;
    out_ += "\":";
  }

  std::string& out_;
  bool first_ = true;
};

void write_synthesis(std::string& out, const synthesis_options_v1& o) {
  object_writer w(out);
  w.field("labeler", o.labeler)
      .field("gamma", o.gamma)
      .field("alignment", o.alignment)
      .field("time_limit_seconds", o.time_limit_seconds)
      .field("threads", o.threads)
      .field("max_rows", o.max_rows)
      .field("max_columns", o.max_columns)
      .field("partition", o.partition)
      .field("separate_robdds", o.separate_robdds)
      .field("minimize_network", o.minimize_network)
      .field("variable_order", o.variable_order)
      .field("kernelize", o.kernelize)
      .field("validate", o.validate)
      .field("verify", o.verify)
      .field("trace_json_path", o.trace_json_path)
      .field("memory_limit_bytes", o.memory_limit_bytes)
      .field("deadline_seconds", o.deadline_seconds)
      .field("flight_record_path", o.flight_record_path)
      .close();
}

void write_lint(std::string& out, const lint_options_v1& o) {
  object_writer w(out);
  w.field("labeler", o.labeler)
      .field("gamma", o.gamma)
      .field("time_limit_seconds", o.time_limit_seconds)
      .field("threads", o.threads)
      .field("equivalence", o.equivalence)
      .field("electrical", o.electrical)
      .field("margin_threshold", o.margin_threshold)
      .field("criticality", o.criticality)
      .field("criticality_limit", o.criticality_limit)
      .close();
}

void write_stats(std::string& out, const synthesis_stats_v1& s) {
  object_writer w(out);
  w.field("graph_nodes", s.graph_nodes)
      .field("vh_count", s.vh_count)
      .field("rows", s.rows)
      .field("columns", s.columns)
      .field("semiperimeter", s.semiperimeter)
      .field("max_dimension", s.max_dimension)
      .field("area", s.area)
      .field("power_proxy", s.power_proxy)
      .field("delay_steps", s.delay_steps)
      .field("optimal", s.optimal)
      .field("relative_gap", s.relative_gap)
      .field("synthesis_seconds", s.synthesis_seconds)
      .field("arrays", s.arrays)
      .field("cut_edges", s.cut_edges)
      .field("bridge_connections", s.bridge_connections)
      .field("total_semiperimeter", s.total_semiperimeter)
      .close();
}

void write_check(std::string& out, const check_result_v1& c) {
  object_writer(out)
      .field("ran", c.ran)
      .field("passed", c.passed)
      .field("detail", c.detail)
      .close();
}

void write_diagnostics(std::string& out,
                       const std::vector<diagnostic_v1>& diagnostics) {
  out += '[';
  for (std::size_t i = 0; i < diagnostics.size(); ++i) {
    const diagnostic_v1& d = diagnostics[i];
    if (i != 0) out += ',';
    object_writer w(out);
    w.field("check", d.check)
        .field("severity", d.severity)
        .field("message", d.message);
    if (!d.fix.empty()) w.field("fix", d.fix);
    if (!d.anchors.empty()) w.names("anchors", d.anchors);
    w.close();
  }
  out += ']';
}

// -------------------------------------------------------------------------
// Readers

[[noreturn]] void fail(const std::string& message) {
  throw parse_error(message);
}

/// A number read into an integer field: a plain decimal token is read
/// exactly, any other token must hold an integral value in Int's range.
template <typename Int>
[[nodiscard]] Int read_integer(json::reader& in, const char* what) {
  std::string_view token;
  const double n = in.number(token);
  Int exact = 0;
  const char* const last = token.data() + token.size();
  const auto [stop, ec] = std::from_chars(token.data(), last, exact);
  if (stop == last) {
    if (ec == std::errc()) return exact;
    fail(std::string(what) + " is out of range");
  }
  if (std::is_unsigned_v<Int> && n < 0)
    fail(std::string(what) + " must be >= 0");
  if (n != std::trunc(n)) fail(std::string(what) + " must be an integer");
  using limits = std::numeric_limits<Int>;
  if (!(n >= static_cast<double>(limits::min()) &&
        n < static_cast<double>(limits::max()) + 1.0))
    fail(std::string(what) + " is out of range");
  return static_cast<Int>(n);
}

/// Matches the key of one strict request object against its field names, in
/// the order the caller tries them, and rejects a key seen before in the
/// same object. `seen` holds one bit per name, by that order.
class strict_member {
 public:
  strict_member(std::string_view key, std::uint32_t& seen, const char* where)
      : key_(key), seen_(seen), where_(where) {}

  // Forced inline: each literal name then compares as a constant. GCC
  // otherwise calls it once per name tried, about a quarter of
  // request_from_json's time.
  [[gnu::always_inline]] bool operator()(std::string_view name) {
    const std::uint32_t bit = std::uint32_t{1} << index_++;
    if (key_ != name) return false;
    if ((seen_ & bit) != 0) reject("repeated");
    seen_ |= bit;
    return true;
  }
  [[noreturn]] void unknown() const { reject("unknown"); }

 private:
  [[noreturn]] void reject(const char* why) const {
    fail(std::string(why) + ' ' + where_ + " field '" + std::string(key_) +
         "'");
  }

  std::string_view key_;
  std::uint32_t& seen_;
  const char* where_;
  int index_ = 0;
};

void read_source(json::reader& in, netlist_source& out) {
  std::uint32_t seen = 0;
  in.object([&](std::string_view key) {
    strict_member is(key, seen, "source");
    if (is("path"))
      out.path = in.string();
    else if (is("text"))
      out.text = in.string();
    else if (is("format"))
      out.format = in.string();
    else
      is.unknown();
  });
}

void read_synthesis(json::reader& in, synthesis_options_v1& o) {
  std::uint32_t seen = 0;
  in.object([&](std::string_view key) {
    strict_member is(key, seen, "synthesis");
    if (is("labeler"))
      o.labeler = in.string();
    else if (is("gamma"))
      o.gamma = in.number();
    else if (is("alignment"))
      o.alignment = in.boolean();
    else if (is("time_limit_seconds"))
      o.time_limit_seconds = in.number();
    else if (is("threads"))
      o.threads = read_integer<int>(in, "threads");
    else if (is("max_rows"))
      o.max_rows = read_integer<int>(in, "max_rows");
    else if (is("max_columns"))
      o.max_columns = read_integer<int>(in, "max_columns");
    else if (is("partition"))
      o.partition = in.boolean();
    else if (is("separate_robdds"))
      o.separate_robdds = in.boolean();
    else if (is("minimize_network"))
      o.minimize_network = in.boolean();
    else if (is("variable_order"))
      o.variable_order = in.string();
    else if (is("kernelize"))
      o.kernelize = in.boolean();
    else if (is("validate"))
      o.validate = in.boolean();
    else if (is("verify"))
      o.verify = in.boolean();
    else if (is("trace_json_path"))
      o.trace_json_path = in.string();
    else if (is("memory_limit_bytes"))
      o.memory_limit_bytes =
          read_integer<std::uint64_t>(in, "memory_limit_bytes");
    else if (is("deadline_seconds"))
      o.deadline_seconds = in.number();
    else if (is("flight_record_path"))
      o.flight_record_path = in.string();
    else
      is.unknown();
  });
}

void read_lint(json::reader& in, lint_options_v1& o) {
  std::uint32_t seen = 0;
  in.object([&](std::string_view key) {
    strict_member is(key, seen, "lint");
    if (is("labeler"))
      o.labeler = in.string();
    else if (is("gamma"))
      o.gamma = in.number();
    else if (is("time_limit_seconds"))
      o.time_limit_seconds = in.number();
    else if (is("threads"))
      o.threads = read_integer<int>(in, "threads");
    else if (is("equivalence"))
      o.equivalence = in.boolean();
    else if (is("electrical"))
      o.electrical = in.boolean();
    else if (is("margin_threshold"))
      o.margin_threshold = in.number();
    else if (is("criticality"))
      o.criticality = in.boolean();
    else if (is("criticality_limit"))
      o.criticality_limit = read_integer<int>(in, "criticality_limit");
    else
      is.unknown();
  });
}

// Lenient response sections. Each starts from its defaults, so that of a
// repeated key only the last copy counts. A section that is present but not
// an object still marks its presence (has_stats, lint_ran, ...) and sets
// nothing else.

/// Read an object section with `on_member`, or skip a non-object value.
template <typename OnMember>
void read_section(json::reader& in, OnMember&& on_member) {
  if (in.peek() == json::kind::object)
    in.object(on_member);
  else
    in.skip();
}

void read_names(json::reader& in, std::vector<std::string>& out) {
  out.clear();
  in.array([&] { out.push_back(in.string()); });
}

void read_stats(json::reader& in, synthesis_stats_v1& s) {
  s = synthesis_stats_v1{};
  read_section(in, [&](std::string_view key) {
    if (key == "graph_nodes")
      s.graph_nodes = read_integer<std::size_t>(in, "graph_nodes");
    else if (key == "vh_count")
      s.vh_count = read_integer<int>(in, "vh_count");
    else if (key == "rows")
      s.rows = read_integer<int>(in, "rows");
    else if (key == "columns")
      s.columns = read_integer<int>(in, "columns");
    else if (key == "semiperimeter")
      s.semiperimeter = read_integer<int>(in, "semiperimeter");
    else if (key == "max_dimension")
      s.max_dimension = read_integer<int>(in, "max_dimension");
    else if (key == "area")
      s.area = read_integer<long long>(in, "area");
    else if (key == "power_proxy")
      s.power_proxy = read_integer<int>(in, "power_proxy");
    else if (key == "delay_steps")
      s.delay_steps = read_integer<int>(in, "delay_steps");
    else if (key == "optimal")
      s.optimal = in.boolean();
    else if (key == "relative_gap")
      s.relative_gap = in.number();
    else if (key == "synthesis_seconds")
      s.synthesis_seconds = in.number();
    else if (key == "arrays")
      s.arrays = read_integer<int>(in, "arrays");
    else if (key == "cut_edges")
      s.cut_edges = read_integer<int>(in, "cut_edges");
    else if (key == "bridge_connections")
      s.bridge_connections = read_integer<int>(in, "bridge_connections");
    else if (key == "total_semiperimeter")
      s.total_semiperimeter = read_integer<int>(in, "total_semiperimeter");
    else
      in.skip();
  });
}

void read_check(json::reader& in, check_result_v1& out) {
  out = check_result_v1{};
  read_section(in, [&](std::string_view key) {
    if (key == "ran")
      out.ran = in.boolean();
    else if (key == "passed")
      out.passed = in.boolean();
    else if (key == "detail")
      out.detail = in.string();
    else
      in.skip();
  });
}

void read_diagnostics(json::reader& in, std::vector<diagnostic_v1>& out) {
  out.clear();
  in.array([&] {
    diagnostic_v1& d = out.emplace_back();
    read_section(in, [&](std::string_view key) {
      if (key == "check")
        d.check = in.string();
      else if (key == "severity")
        d.severity = in.string();
      else if (key == "message")
        d.message = in.string();
      else if (key == "fix")
        d.fix = in.string();
      else if (key == "anchors")
        read_names(in, d.anchors);
      else
        in.skip();
    });
  });
}

void read_lint_summary(json::reader& in, response_v1& r) {
  r.lint_ran = true;
  r.lint_clean = false;
  r.lint_errors = r.lint_warnings = r.lint_notes = 0;
  r.electrical_ran = r.electrically_safe = false;
  r.min_margin_ratio = 0.0;
  r.criticality_ran = r.criticality_truncated = false;
  r.junctions_analyzed = r.critical_junctions = 0;
  read_section(in, [&](std::string_view key) {
    if (key == "clean") {
      r.lint_clean = in.boolean();
    } else if (key == "errors") {
      r.lint_errors = read_integer<std::uint64_t>(in, "errors");
    } else if (key == "warnings") {
      r.lint_warnings = read_integer<std::uint64_t>(in, "warnings");
    } else if (key == "notes") {
      r.lint_notes = read_integer<std::uint64_t>(in, "notes");
    } else if (key == "electrical") {
      r.electrical_ran = true;
      r.electrically_safe = false;
      r.min_margin_ratio = 0.0;
      read_section(in, [&](std::string_view k) {
        if (k == "safe")
          r.electrically_safe = in.boolean();
        else if (k == "min_margin_ratio")
          r.min_margin_ratio = in.number();
        else
          in.skip();
      });
    } else if (key == "criticality") {
      r.criticality_ran = true;
      r.junctions_analyzed = r.critical_junctions = 0;
      r.criticality_truncated = false;
      read_section(in, [&](std::string_view k) {
        if (k == "junctions_analyzed")
          r.junctions_analyzed = read_integer<int>(in, "junctions_analyzed");
        else if (k == "critical_junctions")
          r.critical_junctions = read_integer<int>(in, "critical_junctions");
        else if (k == "truncated")
          r.criticality_truncated = in.boolean();
        else
          in.skip();
      });
    } else {
      in.skip();
    }
  });
}

}  // namespace

std::string to_json(const request_v1& request) {
  const std::size_t text_bytes =
      request.id.size() + request.source.path.size() +
      request.source.text.size() + request.design_text.size() +
      request.assignment.size() + request.synthesis.trace_json_path.size() +
      request.synthesis.flight_record_path.size();
  std::string out;
  out.reserve(768 + text_bytes + text_bytes / 8);
  object_writer w(out);
  w.field("id", request.id).field("op", request.op);
  if (request.api_version != 0) w.field("api_version", request.api_version);
  if (!request.source.path.empty() || !request.source.text.empty() ||
      !request.source.format.empty()) {
    object_writer(w.nested("source"))
        .field("path", request.source.path)
        .field("text", request.source.text)
        .field("format", request.source.format)
        .close();
  }
  if (!request.design_text.empty()) w.field("design", request.design_text);
  if (!request.assignment.empty()) w.field("assignment", request.assignment);
  w.field("deadline_seconds", request.deadline_seconds)
      .field("fail_on", request.fail_on);
  write_synthesis(w.nested("synthesis"), request.synthesis);
  write_lint(w.nested("lint"), request.lint);
  w.close();
  return out;
}

std::string to_json(const response_v1& response) {
  std::size_t text_bytes = response.id.size() + response.error_message.size() +
                           response.design_text.size() +
                           response.validation.detail.size() +
                           response.verification.detail.size() +
                           response.outputs.size();
  for (const diagnostic_v1& d : response.diagnostics) {
    text_bytes += 64 + d.check.size() + d.severity.size() + d.message.size() +
                  d.fix.size();
    for (const std::string& anchor : d.anchors) text_bytes += 4 + anchor.size();
  }
  for (const std::string& name : response.output_names)
    text_bytes += 4 + name.size();
  std::string out;
  out.reserve(640 + text_bytes + text_bytes / 8);
  object_writer w(out);
  w.field("id", response.id)
      .field("ok", response.ok)
      .field("code", error_code_name(response.code));
  if (!response.error_message.empty()) w.field("error", response.error_message);
  if (!response.design_text.empty()) w.field("design", response.design_text);
  if (response.has_stats) write_stats(w.nested("stats"), response.stats);
  if (response.validation.ran)
    write_check(w.nested("validation"), response.validation);
  if (response.verification.ran)
    write_check(w.nested("verification"), response.verification);
  if (!response.diagnostics.empty())
    write_diagnostics(w.nested("diagnostics"), response.diagnostics);
  if (response.lint_ran) {
    object_writer lint(w.nested("lint"));
    lint.field("clean", response.lint_clean)
        .field("errors", response.lint_errors)
        .field("warnings", response.lint_warnings)
        .field("notes", response.lint_notes);
    if (response.electrical_ran) {
      object_writer(lint.nested("electrical"))
          .field("safe", response.electrically_safe)
          .field("min_margin_ratio", response.min_margin_ratio)
          .close();
    }
    if (response.criticality_ran) {
      object_writer(lint.nested("criticality"))
          .field("junctions_analyzed", response.junctions_analyzed)
          .field("critical_junctions", response.critical_junctions)
          .field("truncated", response.criticality_truncated)
          .close();
    }
    lint.close();
  }
  if (!response.outputs.empty()) w.field("outputs", response.outputs);
  if (!response.output_names.empty())
    w.names("output_names", response.output_names);
  w.field("service_seconds", response.service_seconds)
      .field("queue_seconds", response.queue_seconds)
      .close();
  return out;
}

request_v1 request_from_json(const std::string& text) {
  try {
    json::reader in(text);
    request_v1 r;
    std::uint32_t seen = 0;
    in.object([&](std::string_view key) {
      strict_member is(key, seen, "request");
      if (is("id"))
        r.id = in.string();
      else if (is("op"))
        r.op = in.string();
      else if (is("api_version"))
        r.api_version = read_integer<int>(in, "api_version");
      else if (is("source"))
        read_source(in, r.source);
      else if (is("design"))
        r.design_text = in.string();
      else if (is("assignment"))
        r.assignment = in.string();
      else if (is("deadline_seconds"))
        r.deadline_seconds = in.number();
      else if (is("fail_on"))
        r.fail_on = in.string();
      else if (is("synthesis"))
        read_synthesis(in, r.synthesis);
      else if (is("lint"))
        read_lint(in, r.lint);
      else
        is.unknown();
    });
    in.end();
    return r;
  } catch (const compact::parse_error& e) {
    throw parse_error(e.what());
  }
}

response_v1 response_from_json(const std::string& text) {
  try {
    json::reader in(text);
    response_v1 r;
    in.object([&](std::string_view key) {
      if (key == "id") {
        r.id = in.string();
      } else if (key == "ok") {
        r.ok = in.boolean();
      } else if (key == "code") {
        const std::string name = in.string();
        const std::optional<error_code_v1> parsed = parse_error_code(name);
        if (!parsed) fail("unknown error code '" + name + "'");
        r.code = *parsed;
      } else if (key == "error") {
        r.error_message = in.string();
      } else if (key == "design") {
        r.design_text = in.string();
      } else if (key == "stats") {
        r.has_stats = true;
        read_stats(in, r.stats);
      } else if (key == "validation") {
        read_check(in, r.validation);
      } else if (key == "verification") {
        read_check(in, r.verification);
      } else if (key == "diagnostics") {
        read_diagnostics(in, r.diagnostics);
      } else if (key == "lint") {
        read_lint_summary(in, r);
      } else if (key == "outputs") {
        r.outputs = in.string();
      } else if (key == "output_names") {
        read_names(in, r.output_names);
      } else if (key == "service_seconds") {
        r.service_seconds = in.number();
      } else if (key == "queue_seconds") {
        r.queue_seconds = in.number();
      } else {
        in.skip();
      }
    });
    in.end();
    return r;
  } catch (const compact::parse_error& e) {
    throw parse_error(e.what());
  }
}

}  // namespace compact::api
