// compact_cli — command-line front door to the COMPACT flow.
//
//   compact_cli info <netlist>                     network & BDD statistics
//   compact_cli synthesize <netlist> [options]     netlist -> crossbar
//   compact_cli evaluate <design.xbar> <bits>      program + sense a design
//   compact_cli validate <design.xbar> <netlist>   symbolic validity check
//   compact_cli margins <design.xbar> --inputs N   analog sensing margins
//
// Netlist formats are chosen by extension: .blif, .pla, .v / .verilog.
// synthesize options:
//   --method oct|mip|staircase
//                          labeling engine (default mip); staircase is the
//                          prior-work mapping of [16] (every node VH)
//   --gamma G              weighted objective (default 0.5)
//   --time-limit S         solver budget in seconds (default 60)
//   --max-rows N           hard row budget (Section III)
//   --max-cols N           hard column budget
//   --partition            split across multiple arrays instead of failing
//                          when the budgets are exceeded
//   --separate-robdds      prior multi-output strategy instead of one SBDD
//   --threads N            worker threads for parallel stages (default 1)
//   --out FILE.xbar        save the design
//   --dot FILE.dot         dump the shared BDD as graphviz
//   --trace-json FILE      per-stage telemetry as JSON lines
//   --metrics-json FILE    dump the metrics registry as JSON after the run
//                          (memory gauges mem.* included)
//   --chrome-trace FILE    span timeline in Chrome trace-event format
//   --mem-limit BYTES      hard memory budget (K/M/G suffixes accepted);
//                          a breach exits with code 4
//   --deadline S           hard wall-clock budget in seconds; exceeding it
//                          exits with code 4
//   --flight-record FILE   write a postmortem JSON artifact (recent events,
//                          memory accounts, metrics) if the run fails
//   --report FILE.md       markdown synthesis report (implies --validate)
//   --print                pretty-print the crossbar
//   --validate             symbolic validity check before reporting
//   --verify               static analyzer over the design
//   --verify-electrical    --verify plus the ELC electrical checks
//
// synthesize and lint build a request_v1 from their flags and execute it
// through api/run — the code compact-serve runs for the same JSON line — then
// write their outputs from the result.
//
// `compact_cli stats <netlist> [synthesize options]` runs the same flow with
// the metrics registry and memory accounting enabled and prints both as
// tables afterwards.
//
// Exit codes: 0 success, 1 error / dirty verification, 2 usage,
// 3 infeasible budgets, 4 resource limit (memory or deadline) exceeded.
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analog/margins.hpp"
#include "api/compact_api.hpp"
#include "api/run.hpp"
#include "bdd/dot.hpp"
#include "bdd/stats.hpp"
#include "core/report.hpp"
#include "frontend/blif.hpp"
#include "frontend/equivalence.hpp"
#include "frontend/pla.hpp"
#include "frontend/to_bdd.hpp"
#include "frontend/verilog.hpp"
#include "util/flight_recorder.hpp"
#include "util/json.hpp"
#include "util/memtrack.hpp"
#include "util/metrics.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/trace.hpp"
#include "verify/analyzer.hpp"
#include "verify/mutate.hpp"
#include "xbar/equivalence.hpp"
#include "xbar/evaluate.hpp"
#include "xbar/serialize.hpp"

namespace {

using namespace compact;

[[noreturn]] void usage(const std::string& message = {}) {
  if (!message.empty()) std::cerr << "error: " << message << "\n\n";
  std::cerr <<
      "usage:\n"
      "  compact_cli info <netlist>\n"
      "  compact_cli synthesize <netlist> [--method oct|mip|staircase]\n"
      "      [--gamma G] [--time-limit S] [--max-rows N] [--max-cols N]\n"
      "      [--partition] [--threads N] [--order none|sift|exhaustive]\n"
      "      [--minimize] [--separate-robdds] [--out F.xbar] [--dot F.dot]\n"
      "      [--report F.md] [--trace-json F.jsonl] [--metrics-json F.json]\n"
      "      [--chrome-trace F.json] [--mem-limit BYTES] [--deadline S]\n"
      "      [--flight-record F.json] [--print] [--validate] [--verify]\n"
      "      [--verify-electrical]\n"
      "  compact_cli stats <netlist> [synthesize options]\n"
      "  compact_cli evaluate <design.xbar> <assignment-bits>\n"
      "  compact_cli validate <design.xbar> <netlist>\n"
      "  compact_cli equiv <netlist-a> <netlist-b>\n"
      "  compact_cli margins <design.xbar> --inputs N\n"
      "  compact_cli lint <netlist> [--method oct|mip|staircase] [--gamma G]\n"
      "      [--time-limit S] [--threads N] [--sarif F.sarif] [--json F]\n"
      "      [--fail-on note|warning|error] [--no-equivalence]\n"
      "      [--electrical] [--margin-threshold R] [--criticality]\n"
      "      [--criticality-json F] [--criticality-limit N]\n"
      "      [--self-test] [--mutations N]\n"
      "  compact_cli lint <design.xbar> <netlist> [lint options]\n"
      "  compact_cli version [--expect N]\n";
  std::exit(2);
}

// Checked numeric flag parsing: a malformed value is a usage error, never an
// uncaught std::invalid_argument / std::out_of_range crash.
int parse_int_flag(const std::string& flag, const std::string& text) {
  try {
    std::size_t consumed = 0;
    const int value = std::stoi(text, &consumed);
    if (consumed == text.size()) return value;
  } catch (const std::exception&) {
  }
  usage(flag + " expects an integer, got '" + text + "'");
}

double parse_double_flag(const std::string& flag, const std::string& text) {
  try {
    std::size_t consumed = 0;
    const double value = std::stod(text, &consumed);
    if (consumed == text.size()) return value;
  } catch (const std::exception&) {
  }
  usage(flag + " expects a number, got '" + text + "'");
}

int parse_positive_flag(const std::string& flag, const std::string& text) {
  const int value = parse_int_flag(flag, text);
  if (value <= 0) usage(flag + " must be positive, got " + text);
  return value;
}

/// Byte quantity with an optional K / M / G suffix (powers of 1024, case
/// insensitive): "64M" = 67108864. Used by --mem-limit.
std::uint64_t parse_bytes_flag(const std::string& flag,
                               const std::string& text) {
  std::string digits = text;
  std::uint64_t multiplier = 1;
  if (!digits.empty()) {
    switch (digits.back()) {
      case 'k': case 'K': multiplier = 1024ULL; break;
      case 'm': case 'M': multiplier = 1024ULL * 1024; break;
      case 'g': case 'G': multiplier = 1024ULL * 1024 * 1024; break;
      default: break;
    }
    if (multiplier != 1) digits.pop_back();
  }
  try {
    std::size_t consumed = 0;
    const unsigned long long value = std::stoull(digits, &consumed);
    if (consumed == digits.size() && !digits.empty() && value > 0)
      return static_cast<std::uint64_t>(value) * multiplier;
  } catch (const std::exception&) {
  }
  usage(flag + " expects a positive byte count (K/M/G suffix ok), got '" +
        text + "'");
}

frontend::network load_netlist(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw error("cannot open " + path);
  if (path.ends_with(".blif")) return frontend::parse_blif(file);
  if (path.ends_with(".pla")) return frontend::parse_pla(file);
  if (path.ends_with(".v") || path.ends_with(".verilog"))
    return frontend::parse_verilog(file);
  throw error("unknown netlist extension (want .blif, .pla or .v): " + path);
}

xbar::loaded_design load_design(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw error("cannot open " + path);
  return xbar::read_design(file);
}

/// Version-tolerant loader: accepts both the single-array `xbar 1` format
/// and the multi-array `xbar 2` format (evaluate / validate / lint). The
/// commands that only model one array (margins) keep using load_design.
xbar::loaded_partitioned_design load_partitioned(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw error("cannot open " + path);
  return xbar::read_partitioned_design(file);
}

void print_lint_report(const verify::report& r, std::ostream& os) {
  for (const verify::diagnostic& d : r.diagnostics()) {
    os << d.check_id << ' ' << verify::severity_name(d.level) << ": "
       << d.message;
    if (!d.anchors.empty()) {
      os << " [";
      for (std::size_t i = 0; i < d.anchors.size(); ++i) {
        if (i != 0) os << ", ";
        os << verify::to_string(d.anchors[i]);
      }
      os << "]";
    }
    os << "\n";
    if (!d.fix.empty()) os << "  fix: " << d.fix << "\n";
  }
  os << r.error_count() << " error(s), " << r.warning_count()
     << " warning(s), " << r.note_count() << " note(s); "
     << r.checks_run().size() << " checks run\n";
}

int cmd_info(const std::vector<std::string>& args) {
  if (args.empty()) usage("info needs a netlist");
  const frontend::network net = load_netlist(args[0]);
  bdd::manager m(net.input_count());
  const frontend::sbdd built = frontend::build_sbdd(net, m);
  const bdd::reachable_set r = bdd::collect_reachable(m, built.roots);

  table t({"metric", "value"});
  t.add_row({"model", net.name()});
  t.add_row({"inputs", cell(net.input_count())});
  t.add_row({"outputs", cell(net.outputs().size())});
  t.add_row({"network nodes", cell(net.node_count())});
  t.add_row({"SBDD nodes", cell(r.nodes.size())});
  t.add_row({"SBDD internal nodes", cell(r.internal_count)});
  t.add_row({"SBDD edges", cell(r.edge_count)});
  t.print(std::cout);
  return 0;
}

/// Render the global metrics registry as a three-column table. Values are
/// read back through the registry's own JSON dump so the table and the
/// --metrics-json file can never disagree.
void print_metrics_table(std::ostream& os) {
  std::ostringstream raw;
  global_metrics().write_json(raw);
  const json::value_ptr doc = json::parse(raw.str());
  table t({"metric", "kind", "value"});
  for (const auto& [name, kind] : global_metrics().names()) {
    const json::value* v = doc->find(name);
    if (v == nullptr) continue;
    std::string rendered;
    if (kind == "counter" || kind == "gauge") {
      rendered = json_number(v->as_number());
    } else if (kind == "histogram") {
      rendered = "count=" + json_number(v->at("count").as_number()) +
                 " p50=" + json_number(v->at("p50").as_number()) +
                 " p99=" + json_number(v->at("p99").as_number());
    } else {  // series
      const auto& points = v->at("points").as_array();
      rendered = "points=" + std::to_string(points.size());
      if (!points.empty()) {
        const auto& last = points.back()->as_array();
        rendered += " last=" + json_number(last[1]->as_number());
      }
    }
    t.add_row({name, kind, rendered});
  }
  t.print(os);
}

/// Memory-account gauges (`compact_cli stats`): live / peak bytes per
/// account plus the process totals the watchdog compares against its limit.
void print_memory_table(std::ostream& os) {
  table t({"memory account", "live bytes", "peak bytes"});
  for (const mem_account* account : memtrack_accounts())
    t.add_row({account->name(), cell(static_cast<std::size_t>(account->live())),
               cell(static_cast<std::size_t>(account->peak()))});
  t.add_row({"process",
             cell(static_cast<std::size_t>(memtrack_process_live())),
             cell(static_cast<std::size_t>(memtrack_process_peak()))});
  t.print(os);
}

/// One-line flight-recorder status (`compact_cli stats`).
void print_flight_status(std::ostream& os) {
  if (!flight_recorder_enabled()) {
    os << "flight recorder: disabled\n";
    return;
  }
  os << "flight recorder: enabled, " << flight_recorded_count()
     << " event(s) recorded (capacity " << flight_recorder_capacity() << ")";
  const std::string path = flight_record_path();
  if (!path.empty()) os << ", postmortem -> " << path;
  os << "\n";
}

/// Writes the --metrics-json / --chrome-trace artifacts when the scope ends,
/// so they appear on *every* exit path out of cmd_synthesize — including
/// thrown errors, where the partial timeline is exactly what one wants to
/// inspect. Write failures warn on stderr; a dump must never mask the
/// original error with an exception from a destructor.
struct observability_dump {
  std::optional<std::string> metrics_path;
  std::optional<std::string> chrome_path;
  ~observability_dump() {
    try {
      if (metrics_path) {
        // Fold the final memory-account values into the registry so the
        // mem.* gauges in the JSON reflect end-of-run state, not the last
        // stage boundary.
        publish_memtrack_metrics();
        std::ofstream out(*metrics_path);
        if (out) {
          global_metrics().write_json(out);
          out << '\n';
        } else {
          std::cerr << "warning: cannot write " << *metrics_path << "\n";
        }
      }
      if (chrome_path) {
        std::ofstream out(*chrome_path);
        if (out)
          write_chrome_trace(out);
        else
          std::cerr << "warning: cannot write " << *chrome_path << "\n";
      }
    } catch (...) {
    }
  }
};

/// --method: a built-in labeler of the library.
std::string parse_method(const std::string& name) {
  if (name != "oct" && name != "mip" && name != "staircase")
    usage("unknown method " + name);
  return name;
}

/// `compact_cli synthesize` — netlist in, crossbar out. The flags become a
/// request_v1 that runs through api::run_synthesize (exactly what
/// compact-serve executes for the same JSON line); every output below is
/// written from that one result.
int cmd_synthesize(const std::vector<std::string>& args) {
  if (args.empty()) usage("synthesize needs a netlist");
  api::request_v1 request;
  request.op = "synthesize";
  request.source.path = args[0];
  api::synthesis_options_v1& options = request.synthesis;
  bool do_print = false;
  std::optional<std::string> out_path, dot_path, report_path;
  std::optional<std::string> metrics_path, chrome_path;

  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto value = [&]() -> const std::string& {
      if (++i >= args.size()) usage(a + " needs a value");
      return args[i];
    };
    if (a == "--method") {
      options.labeler = parse_method(value());
    } else if (a == "--gamma") {
      options.gamma = parse_double_flag(a, value());
      if (options.gamma < 0.0 || options.gamma > 1.0)
        usage("--gamma must be in [0, 1]");
    } else if (a == "--time-limit") {
      options.time_limit_seconds = parse_double_flag(a, value());
      if (options.time_limit_seconds <= 0.0)
        usage("--time-limit must be positive");
    } else if (a == "--max-rows") {
      options.max_rows = parse_positive_flag(a, value());
    } else if (a == "--max-cols") {
      options.max_columns = parse_positive_flag(a, value());
    } else if (a == "--partition") {
      options.partition = true;
    } else if (a == "--threads") {
      options.threads = parse_positive_flag(a, value());
    } else if (a == "--order") {
      const std::string& v = value();
      if (v != "none" && v != "sift" && v != "exhaustive")
        usage("unknown order effort " + v);
      options.variable_order = v;
    } else if (a == "--minimize") {
      options.minimize_network = true;
    } else if (a == "--separate-robdds") {
      options.separate_robdds = true;
    } else if (a == "--out") {
      out_path = value();
    } else if (a == "--dot") {
      dot_path = value();
    } else if (a == "--report") {
      report_path = value();
    } else if (a == "--trace-json") {
      options.trace_json_path = value();
    } else if (a == "--metrics-json") {
      metrics_path = value();
    } else if (a == "--chrome-trace") {
      chrome_path = value();
    } else if (a == "--mem-limit") {
      options.memory_limit_bytes = parse_bytes_flag(a, value());
    } else if (a == "--deadline") {
      options.deadline_seconds = parse_double_flag(a, value());
      if (options.deadline_seconds <= 0.0)
        usage("--deadline must be positive");
    } else if (a == "--flight-record") {
      options.flight_record_path = value();
    } else if (a == "--print") {
      do_print = true;
    } else if (a == "--validate") {
      options.validate = true;
    } else if (a == "--verify") {
      options.verify = true;
    } else if (a == "--verify-electrical") {
      // The analyzer switches of a synthesize request live in request.lint.
      options.verify = true;
      request.lint.electrical = true;
    } else {
      usage("unknown option " + a);
    }
  }
  if (options.separate_robdds && options.variable_order != "none") {
    std::cerr << "note: --order is ignored with --separate-robdds\n";
    options.variable_order = "none";
  }
  // The report documents the validation verdict.
  if (report_path) options.validate = true;

  // Enable the observers before any flow code runs; the dump guard then
  // persists whatever they saw, even when loading or synthesis throws.
  if (metrics_path) {
    set_metrics_enabled(true);
    global_metrics().reset();
    // Memory gauges ride along in the JSON dump (mem.* names).
    set_memtrack_enabled(true);
    memtrack_reset();
  }
  if (chrome_path) {
    set_trace_enabled(true);
    trace_reset();
  }
  const observability_dump dump{metrics_path, chrome_path};

  const api::run_result result = api::run_synthesize(request, {});
  const api::synthesis_stats_v1 s = api::to_stats(result.stats);

  if (dot_path) {
    std::ofstream dot(*dot_path);
    if (!dot) throw error("cannot write " + *dot_path);
    const api::spec_bdd& spec = *result.spec;
    bdd::write_dot(spec.manager, spec.built.roots, spec.built.names, dot);
  }

  table t({"metric", "value"});
  if (s.arrays > 1) {
    // Partition-aware cost report: rows x cols is the largest fragment, and
    // the inter-array accounting (Section: partitioning) joins the table.
    t.add_row({"arrays used", cell(s.arrays)});
    t.add_row({"largest array (rows x cols)",
               cell(s.rows) + " x " + cell(s.columns)});
    t.add_row({"total semiperimeter", cell(s.total_semiperimeter)});
    t.add_row({"cut size (SBDD edges)", cell(s.cut_edges)});
    t.add_row({"bridge connections", cell(s.bridge_connections)});
  } else {
    t.add_row({"rows x cols", cell(s.rows) + " x " + cell(s.columns)});
    t.add_row({"semiperimeter S", cell(s.semiperimeter)});
  }
  t.add_row({"max dimension D", cell(s.max_dimension)});
  t.add_row({"area", cell(s.area)});
  t.add_row({"BDD graph nodes (n)", cell(s.graph_nodes)});
  t.add_row({"VH labels (k)", cell(s.vh_count)});
  t.add_row({"power proxy (literal devices)", cell(s.power_proxy)});
  t.add_row({"delay (steps)", cell(s.delay_steps)});
  t.add_row({"labeling optimal", s.optimal ? "yes" : "no"});
  t.add_row({"relative gap", cell(100.0 * s.relative_gap, 2) + "%"});
  t.add_row({"synthesis time (s)", cell(s.synthesis_seconds, 3)});
  t.print(std::cout);

  if (result.verification) {
    const api::check_result_v1 v = api::to_check_result(*result.verification);
    std::cout << "\nverify: " << (v.passed ? "CLEAN" : "DIRTY") << " ("
              << v.detail << ")\n";
    if (!v.passed) {
      print_lint_report(*result.verification, std::cout);
      return 1;
    }
  }
  if (result.validation) {
    const api::check_result_v1 v = api::to_check_result(*result.validation);
    std::cout << "\nvalidity: " << v.detail << "\n";
    if (!v.passed) return 1;
  }
  if (report_path) {
    std::ofstream report_file(*report_path);
    if (!report_file) throw error("cannot write " + *report_path);
    core::report_inputs inputs;
    inputs.circuit_name = result.spec->net.name();
    inputs.stats = &result.stats;
    inputs.labels = result.artifacts().labels;  // default shape only
    inputs.validation = &*result.validation;
    core::write_report(inputs, report_file);
    std::cout << "\nwrote " << *report_path << "\n";
  }

  if (do_print) std::cout << '\n' << result.mapped.render();
  if (out_path) {
    std::ofstream out(*out_path);
    if (!out) throw error("cannot write " + *out_path);
    out << result.mapped.to_text();
    std::cout << "\nwrote " << *out_path << "\n";
  }
  return 0;
}

int cmd_stats(const std::vector<std::string>& args) {
  if (args.empty()) usage("stats needs a netlist");
  // Same flow and flags as synthesize, with the registry and memory
  // accounting force-enabled; afterwards every counter the run touched
  // prints as a table, followed by the memory accounts and the
  // flight-recorder status.
  set_metrics_enabled(true);
  global_metrics().reset();
  set_memtrack_enabled(true);
  memtrack_reset();
  const int rc = cmd_synthesize(args);
  publish_memtrack_metrics();
  std::cout << "\n";
  print_metrics_table(std::cout);
  std::cout << "\n";
  print_memory_table(std::cout);
  std::cout << "\n";
  print_flight_status(std::cout);
  return rc;
}

int cmd_equiv(const std::vector<std::string>& args) {
  if (args.size() < 2) usage("equiv needs two netlists");
  const frontend::network a = load_netlist(args[0]);
  const frontend::network b = load_netlist(args[1]);
  const frontend::equivalence_report report =
      frontend::check_equivalence(a, b);
  if (report.equivalent) {
    std::cout << "EQUIVALENT\n";
    return 0;
  }
  std::cout << "NOT EQUIVALENT\n";
  for (const std::string& m : report.mismatches)
    std::cout << "  mismatch: " << m << "\n";
  if (!report.counterexample.empty()) {
    std::cout << "  counterexample:";
    for (bool v : report.counterexample) std::cout << ' ' << (v ? 1 : 0);
    std::cout << "\n";
  }
  return 1;
}

int cmd_evaluate(const std::vector<std::string>& args) {
  if (args.size() < 2) usage("evaluate needs a design and assignment bits");
  const xbar::loaded_partitioned_design loaded = load_partitioned(args[0]);
  const std::string& bits = args[1];
  std::vector<bool> assignment;
  for (char c : bits) {
    if (c != '0' && c != '1') usage("assignment must be a 0/1 string");
    assignment.push_back(c == '1');
  }
  const std::vector<bool> out = xbar::evaluate(loaded.design, assignment);
  const std::vector<std::string> names = loaded.design.output_names();
  for (std::size_t index = 0; index < names.size(); ++index)
    std::cout << names[index] << " = " << (out[index] ? 1 : 0) << "\n";
  return 0;
}

int cmd_validate(const std::vector<std::string>& args) {
  if (args.size() < 2) usage("validate needs a design and a netlist");
  const xbar::loaded_partitioned_design loaded = load_partitioned(args[0]);
  const frontend::network net = load_netlist(args[1]);
  // Validation is always symbolic; --symbolic is accepted as a no-op.
  for (std::size_t i = 2; i < args.size(); ++i)
    if (args[i] != "--symbolic") usage("unknown option " + args[i]);
  bdd::manager m(net.input_count());
  const frontend::sbdd built = frontend::build_sbdd(net, m);
  const xbar::equivalence_report report = xbar::validate(
      loaded.design, m, built.roots, built.names, net.input_count());
  std::cout << xbar::verdict_text(report) << "\n";
  return report.equivalent ? 0 : 1;
}

/// `compact_cli lint` — run the static analyzer (src/verify) without
/// simulating a single input vector, through api::run_lint.
///
/// Two input shapes: a netlist (the full pipeline runs, so labeling /
/// mapping / structural / equivalence checks all apply) or a saved .xbar
/// plus the netlist it claims to implement (structural + symbolic
/// equivalence only). --self-test adds the mutation-kill harness: every
/// injected corruption must be caught by some check.
int cmd_lint(const std::vector<std::string>& args) {
  if (args.empty()) usage("lint needs a netlist or a design");
  const bool xbar_mode = args[0].ends_with(".xbar");
  std::size_t positional = 1;
  std::string design_path, netlist_path;
  if (xbar_mode) {
    if (args.size() < 2 || args[1].starts_with("--"))
      usage("lint <design.xbar> needs the netlist it implements");
    design_path = args[0];
    netlist_path = args[1];
    positional = 2;
  } else {
    netlist_path = args[0];
  }

  api::request_v1 request;
  request.op = "lint";
  request.source.path = netlist_path;
  api::lint_options_v1& options = request.lint;
  verify::severity fail_on = verify::severity::warning;
  bool self_test = false;
  std::size_t mutations_per_kind = 4;
  std::optional<std::string> sarif_path, json_path, criticality_json_path;

  for (std::size_t i = positional; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto value = [&]() -> const std::string& {
      if (++i >= args.size()) usage(a + " needs a value");
      return args[i];
    };
    if (a == "--method") {
      options.labeler = parse_method(value());
    } else if (a == "--gamma") {
      options.gamma = parse_double_flag(a, value());
    } else if (a == "--time-limit") {
      options.time_limit_seconds = parse_double_flag(a, value());
    } else if (a == "--threads") {
      options.threads = parse_positive_flag(a, value());
    } else if (a == "--sarif") {
      sarif_path = value();
    } else if (a == "--json") {
      json_path = value();
    } else if (a == "--fail-on") {
      const std::string& v = value();
      const std::optional<verify::severity> parsed =
          verify::parse_severity(v);
      if (!parsed) usage("--fail-on expects note|warning|error, got " + v);
      fail_on = *parsed;
    } else if (a == "--no-equivalence") {
      options.equivalence = false;
    } else if (a == "--electrical") {
      options.electrical = true;
    } else if (a == "--margin-threshold") {
      options.margin_threshold = parse_double_flag(a, value());
      if (options.margin_threshold <= 0.0)
        usage("--margin-threshold must be positive");
      options.electrical = true;
    } else if (a == "--criticality") {
      options.criticality = true;
    } else if (a == "--criticality-json") {
      criticality_json_path = value();
      options.criticality = true;
    } else if (a == "--criticality-limit") {
      options.criticality_limit = parse_positive_flag(a, value());
      options.criticality = true;
    } else if (a == "--self-test") {
      self_test = true;
    } else if (a == "--mutations") {
      mutations_per_kind =
          static_cast<std::size_t>(parse_positive_flag(a, value()));
    } else {
      usage("unknown option " + a);
    }
  }
  if (xbar_mode) {
    std::ifstream file(design_path);
    if (!file) throw error("cannot open " + design_path);
    std::ostringstream text;
    text << file.rdbuf();
    request.design_text = text.str();
  }

  const api::run_result result = api::run_lint(request, {});
  verify::electrical_options electrical;
  electrical.margin_threshold = options.margin_threshold;
  verify::criticality_options criticality;
  criticality.max_faults = options.criticality_limit;
  verify::artifacts artifacts = result.artifacts();
  if (options.electrical) artifacts.electrical = &electrical;
  if (options.criticality) artifacts.criticality = &criticality;

  if (self_test) {
    verify::analyzer_options analyzer_options;
    analyzer_options.equivalence = options.equivalence;
    const verify::self_test_result outcome =
        verify::run_self_test(artifacts, analyzer_options, mutations_per_kind);
    for (const verify::self_test_outcome& o : outcome.outcomes) {
      std::cout << (o.killed ? "killed  " : "SURVIVED") << "  "
                << o.m.describe();
      if (!o.triggered_checks.empty()) {
        std::cout << "  (";
        for (std::size_t i = 0; i < o.triggered_checks.size(); ++i) {
          if (i != 0) std::cout << ", ";
          std::cout << o.triggered_checks[i];
        }
        std::cout << ")";
      }
      std::cout << "\n";
    }
    std::cout << "self-test: " << outcome.killed << "/" << outcome.total
              << " mutations killed\n";
    return outcome.all_killed() && outcome.total > 0 ? 0 : 1;
  }

  const verify::report& report = *result.verification;
  print_lint_report(report, std::cout);
  if (const auto& e = result.analysis.electrical)
    std::cout << "electrical: " << (e->safe ? "safe" : "UNSAFE")
              << " (min margin ratio " << e->min_margin_ratio << ")\n";
  if (const auto& c = result.analysis.criticality)
    std::cout << "criticality: " << c->critical_count << "/"
              << c->junction_count << " junctions critical"
              << (c->truncated ? " (truncated)" : "") << "\n";

  if (criticality_json_path) {
    // The FLT family fills the analysis cache when the equivalence-cost
    // class is enabled; otherwise (or when gating skipped it) run the engine
    // directly so the requested map is always written.
    verify::criticality_report crit;
    if (result.analysis.criticality.has_value())
      crit = *result.analysis.criticality;
    else if (artifacts.partitioned != nullptr)
      crit = verify::analyze_criticality(
          *artifacts.partitioned, artifacts.resolve_variable_count(),
          criticality);
    else if (artifacts.design != nullptr)
      crit = verify::analyze_criticality(
          *artifacts.design, artifacts.resolve_variable_count(), criticality);
    std::ofstream out(*criticality_json_path);
    if (!out) throw error("cannot write " + *criticality_json_path);
    verify::write_criticality_json(crit, out);
    std::cout << "wrote " << *criticality_json_path << "\n";
  }
  if (json_path) {
    std::ofstream out(*json_path);
    if (!out) throw error("cannot write " + *json_path);
    verify::write_json(report, out);
  }
  if (sarif_path) {
    std::ofstream out(*sarif_path);
    if (!out) throw error("cannot write " + *sarif_path);
    verify::sarif_options sarif;
    sarif.artifact_uri = xbar_mode ? design_path : netlist_path;
    sarif.rules = verify::registry_rules();
    verify::write_sarif(report, sarif, out);
    std::cout << "wrote " << *sarif_path << "\n";
  }
  return verify::lint_exit_code(report, fail_on);
}

/// `compact_cli version` — print the schema version this binary was compiled
/// against (COMPACT_API_VERSION) and the one the linked library implements
/// (api_version()). Skew between the two — or against --expect N — is
/// reported as the same structured version_mismatch response a served
/// request would get, and exits 1.
int cmd_version(const std::vector<std::string>& args) {
  std::optional<int> expected;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--expect" && i + 1 < args.size())
      expected = parse_positive_flag("--expect", args[++i]);
    else
      usage("unknown option " + args[i]);
  }
  std::cout << "header  COMPACT_API_VERSION " << COMPACT_API_VERSION << "\n"
            << "library api_version()       " << api::api_version() << "\n";

  const auto mismatch = [](const std::string& message) {
    api::response_v1 resp;
    resp.ok = false;
    resp.code = api::error_code_v1::version_mismatch;
    resp.error_message = message;
    std::cerr << "version mismatch: " << message << "\n"
              << api::to_json(resp) << "\n";
    return 1;
  };
  if (api::api_version() != COMPACT_API_VERSION)
    return mismatch("binary compiled against api version " +
                    std::to_string(COMPACT_API_VERSION) +
                    " but the library implements version " +
                    std::to_string(api::api_version()));
  if (expected && *expected != api::api_version())
    return mismatch("expected api version " + std::to_string(*expected) +
                    " but the library implements version " +
                    std::to_string(api::api_version()));
  std::cout << "versions agree\n";
  return 0;
}

int cmd_margins(const std::vector<std::string>& args) {
  if (args.empty()) usage("margins needs a design");
  const xbar::loaded_design loaded = load_design(args[0]);
  int inputs = -1;
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--inputs" && i + 1 < args.size())
      inputs = parse_positive_flag("--inputs", args[++i]);
    else
      usage("unknown option " + args[i]);
  }
  // Infer from the largest variable index used by any device.
  if (inputs < 0) inputs = loaded.design.max_variable() + 1;

  const analog::device_model model;
  const analog::margin_report report =
      analog::measure_margins(loaded.design, inputs, model);
  table t({"metric", "value"});
  t.add_row({"assignments", cell(report.checked_assignments)});
  t.add_row({"weakest logic-1 (V)", cell(report.min_high_voltage, 4)});
  t.add_row({"strongest logic-0 (V)", cell(report.max_low_voltage, 4)});
  t.add_row({"margin (V)", cell(report.margin, 4)});
  t.add_row({"separable", report.separable ? "yes" : "no"});
  const double ratio =
      analog::minimal_working_ratio(loaded.design, inputs, model);
  t.add_row({"min working Roff/Ron",
             ratio > 0.0 ? cell(ratio, 0) : std::string("none <= 1e8")});
  t.print(std::cout);
  return report.separable ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) usage();
  const std::string command = args[0];
  args.erase(args.begin());
  try {
    if (command == "info") return cmd_info(args);
    if (command == "synthesize") return cmd_synthesize(args);
    if (command == "stats") return cmd_stats(args);
    if (command == "evaluate") return cmd_evaluate(args);
    if (command == "validate") return cmd_validate(args);
    if (command == "equiv") return cmd_equiv(args);
    if (command == "margins") return cmd_margins(args);
    if (command == "lint") return cmd_lint(args);
    if (command == "version") return cmd_version(args);
    usage("unknown command " + command);
  } catch (const api::infeasible_error& e) {
    dump_flight_postmortem(std::string("infeasible: ") + e.what());
    std::cerr << "infeasible: " << e.what() << "\n";
    return 3;
  } catch (const api::resource_limit_error& e) {
    dump_flight_postmortem(std::string("resource limit: ") + e.what());
    std::cerr << "resource limit (" << e.kind_name() << "): " << e.what()
              << "\n";
    return 4;
  } catch (const error& e) {
    dump_flight_postmortem(std::string("error: ") + e.what());
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  } catch (const api::error& e) {
    dump_flight_postmortem(std::string("error: ") + e.what());
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    // Last-resort net: standard-library exceptions (bad_alloc, filesystem,
    // regex, ...) exit cleanly instead of calling std::terminate.
    dump_flight_postmortem(std::string("uncaught exception: ") + e.what());
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
