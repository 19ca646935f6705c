#include "api/compact_api.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <optional>
#include <sstream>
#include <utility>

#include "api/run.hpp"
#include "core/compact.hpp"
#include "core/partition.hpp"
#include "core/pipeline.hpp"
#include "frontend/blif.hpp"
#include "frontend/minimize.hpp"
#include "frontend/pla.hpp"
#include "frontend/to_bdd.hpp"
#include "frontend/verilog.hpp"
#include "util/error.hpp"
#include "util/flight_recorder.hpp"
#include "util/stopwatch.hpp"
#include "util/telemetry.hpp"
#include "util/watchdog.hpp"
#include "verify/analyzer.hpp"
#include "xbar/equivalence.hpp"
#include "xbar/evaluate.hpp"
#include "xbar/partitioned.hpp"
#include "xbar/serialize.hpp"

namespace compact::api {
namespace {

/// Run `f`, translating the library's exception hierarchy into the facade's
/// own (clients compile against this header alone and must be able to catch
/// everything the facade throws by spelling api:: types only).
template <typename F>
auto translated(F&& f) -> decltype(f()) {
  try {
    return f();
  } catch (const compact::parse_error& e) {
    throw parse_error(e.what());
  } catch (const compact::infeasible_error& e) {
    throw infeasible_error(e.what());
  } catch (const compact::resource_limit_error& e) {
    throw resource_limit_error(
        e.limit_kind() == compact::resource_limit_error::kind::memory
            ? resource_limit_error::kind::memory
            : resource_limit_error::kind::deadline,
        e.what());
  } catch (const compact::error& e) {
    throw error(e.what());
  }
}

[[nodiscard]] std::string lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

/// Resolve the parser for `source`: explicit format, else path extension,
/// else BLIF for inline text.
[[nodiscard]] std::string resolve_format(const netlist_source& source) {
  if (!source.format.empty()) {
    const std::string f = lower(source.format);
    if (f != "blif" && f != "pla" && f != "verilog")
      throw parse_error("unknown netlist format '" + source.format +
                        "' (expected blif, pla, or verilog)");
    return f;
  }
  if (!source.path.empty()) {
    const std::string p = source.path;
    if (p.ends_with(".blif")) return "blif";
    if (p.ends_with(".pla")) return "pla";
    if (p.ends_with(".v") || p.ends_with(".verilog")) return "verilog";
    throw parse_error("cannot infer netlist format of " + p +
                      " (expected .blif, .pla, .v, or .verilog)");
  }
  return "blif";
}

[[nodiscard]] frontend::network load_network(const netlist_source& source) {
  if (source.path.empty() == source.text.empty())
    throw error("netlist_source needs exactly one of `path` or `text`");
  const std::string format = resolve_format(source);
  const auto parse = [&](std::istream& is) {
    if (format == "blif") return frontend::parse_blif(is);
    if (format == "pla") return frontend::parse_pla(is);
    return frontend::parse_verilog(is);
  };
  if (!source.path.empty()) {
    std::ifstream file(source.path);
    if (!file) throw parse_error("cannot open " + source.path);
    return parse(file);
  }
  if (format == "blif") return frontend::parse_blif(source.text);
  std::istringstream text(source.text);
  return parse(text);
}

[[nodiscard]] std::vector<std::string> input_names(
    const frontend::network& net) {
  std::vector<std::string> names;
  for (int i : net.inputs()) names.push_back(net.node(i).name);
  return names;
}

[[nodiscard]] frontend::order_effort parse_order(const std::string& name) {
  if (name == "none") return frontend::order_effort::none;
  if (name == "sift") return frontend::order_effort::sift;
  if (name == "exhaustive") return frontend::order_effort::exhaustive;
  throw error("unknown variable_order '" + name +
              "' (expected none, sift, or exhaustive)");
}

/// Translate the versioned plain-struct knobs into the internal options.
[[nodiscard]] core::synthesis_options to_core_options(
    const synthesis_options_v1& options) {
  if (!(options.gamma >= 0.0 && options.gamma <= 1.0))
    throw error("gamma must lie in [0, 1]");
  if (options.time_limit_seconds <= 0.0)
    throw error("time_limit_seconds must be positive");
  if (options.threads < 1) throw error("threads must be >= 1");
  if (options.max_rows < 0 || options.max_columns < 0)
    throw error("max_rows / max_columns must be >= 0 (0 = unbounded)");

  core::synthesis_options core;
  if (options.labeler == "oct")
    core.method = core::labeling_method::minimal_semiperimeter;
  else if (options.labeler == "mip")
    core.method = core::labeling_method::weighted_mip;
  else
    core.labeler = options.labeler;  // registry dispatch by name
  core.gamma = options.gamma;
  core.alignment = options.alignment;
  core.time_limit_seconds = options.time_limit_seconds;
  core.parallel.threads = options.threads;
  if (options.max_rows > 0) core.max_rows = options.max_rows;
  if (options.max_columns > 0) core.max_columns = options.max_columns;
  core.oct_reduction = options.kernelize;
  core.partition = options.partition;
  if (options.deadline_seconds < 0.0)
    throw error("deadline_seconds must be >= 0 (0 = unlimited)");
  core.memory_limit_bytes = options.memory_limit_bytes;
  core.deadline_seconds = options.deadline_seconds;
  return core;
}

}  // namespace

int api_version() { return COMPACT_API_VERSION; }

// ---------------------------------------------------------------------------
// design

struct design::impl {
  xbar::crossbar mapped{1, 1};
  /// Set for multi-array designs; `mapped` is then unused. Single-array
  /// designs (including degenerate partitions) always live in `mapped` so
  /// their serialization stays byte-identical to version 1.
  std::optional<xbar::partitioned_design> partitioned;
  std::vector<std::string> variable_names;
};

design::design() : impl_(std::make_unique<impl>()) {}
design::design(const design& other)
    : impl_(std::make_unique<impl>(*other.impl_)) {}
design::design(design&& other) noexcept = default;
design& design::operator=(const design& other) {
  impl_ = std::make_unique<impl>(*other.impl_);
  return *this;
}
design& design::operator=(design&& other) noexcept = default;
design::~design() = default;

int design::rows() const {
  return impl_->partitioned ? impl_->partitioned->max_fragment_rows()
                            : impl_->mapped.rows();
}
int design::columns() const {
  return impl_->partitioned ? impl_->partitioned->max_fragment_columns()
                            : impl_->mapped.columns();
}
int design::array_count() const {
  return impl_->partitioned ? impl_->partitioned->array_count() : 1;
}

std::vector<std::string> design::output_names() const {
  if (impl_->partitioned) return impl_->partitioned->output_names();
  std::vector<std::string> names;
  for (const xbar::output_port& o : impl_->mapped.outputs())
    names.push_back(o.name);
  for (const auto& [name, value] : impl_->mapped.constant_outputs()) {
    (void)value;
    names.push_back(name);
  }
  return names;
}

std::string design::to_text() const {
  std::ostringstream os;
  if (impl_->partitioned)
    xbar::write_partitioned_design(*impl_->partitioned, os,
                                   impl_->variable_names);
  else
    xbar::write_design(impl_->mapped, os, impl_->variable_names);
  return os.str();
}

design design::from_text(const std::string& text) {
  return translated([&] {
    xbar::loaded_partitioned_design loaded =
        xbar::read_partitioned_design(text);
    design d;
    d.impl_->variable_names = std::move(loaded.variable_names);
    // A one-array document with no bridges is a plain design; keep it in the
    // single-array representation so it round-trips as version 1.
    if (loaded.design.array_count() == 1 && loaded.design.connections().empty())
      d.impl_->mapped = std::move(loaded.design.fragment(0));
    else
      d.impl_->partitioned = std::move(loaded.design);
    return d;
  });
}

std::string design::render() const {
  std::ostringstream os;
  if (impl_->partitioned)
    impl_->partitioned->print(os, impl_->variable_names);
  else
    impl_->mapped.print(os, impl_->variable_names);
  return os.str();
}

std::vector<bool> design::evaluate(const std::vector<bool>& assignment) const {
  return translated([&] {
    return impl_->partitioned ? xbar::evaluate(*impl_->partitioned, assignment)
                              : xbar::evaluate(impl_->mapped, assignment);
  });
}

bool design::evaluate_output(const std::vector<bool>& assignment,
                             const std::string& output_name) const {
  return translated([&] {
    return impl_->partitioned
               ? xbar::evaluate_output(*impl_->partitioned, assignment,
                                       output_name)
               : xbar::evaluate_output(impl_->mapped, assignment, output_name);
  });
}

// ---------------------------------------------------------------------------
// run functions

verify::artifacts run_result::artifacts() const {
  verify::artifacts a;
  if (pipeline) {
    a = verify::make_artifacts(*pipeline);
  } else if (mapped.internals().partitioned) {
    a.partitioned = &*mapped.internals().partitioned;
  } else {
    a.design = &mapped.internals().mapped;
  }
  a.spec = &spec->manager;
  a.spec_roots = &spec->built.roots;
  a.spec_names = &spec->built.names;
  a.variable_count = spec->net.input_count();
  return a;
}

namespace {

/// Store a partitioned core design in the handle. Single-array designs
/// (including degenerate partitions) live in `mapped` so their
/// serialization stays byte-identical to version 1.
void adopt(design& d, xbar::partitioned_design partitioned) {
  if (partitioned.array_count() == 1 && partitioned.connections().empty())
    d.internals().mapped = std::move(partitioned.fragment(0));
  else
    d.internals().partitioned = std::move(partitioned);
}

/// Express device literals in declared-input numbering so evaluate()
/// assignments read naturally (level l tested input variable_order[l]).
void remap(design& d, const std::vector<int>& variable_order) {
  bool identity = true;
  for (std::size_t l = 0; l < variable_order.size(); ++l)
    if (variable_order[l] != static_cast<int>(l)) identity = false;
  if (identity) return;
  design::impl& i = d.internals();
  if (i.partitioned)
    i.partitioned = xbar::remap_variables(*i.partitioned, variable_order);
  else
    i.mapped = xbar::remap_variables(i.mapped, variable_order);
}

/// Run the analyzer over `result` with the switches of `options`, keeping
/// the engine results in result.analysis.
void analyze(run_result& result, const lint_options_v1& options) {
  verify::artifacts artifacts = result.artifacts();
  verify::electrical_options electrical;
  if (options.electrical) {
    if (options.margin_threshold <= 0.0)
      throw error("margin_threshold must be positive");
    electrical.margin_threshold = options.margin_threshold;
    artifacts.electrical = &electrical;
  }
  verify::criticality_options criticality;
  if (options.criticality) {
    if (options.criticality_limit < 0)
      throw error("criticality_limit must be >= 0 (0 = exhaustive)");
    criticality.max_faults = options.criticality_limit;
    artifacts.criticality = &criticality;
  }
  artifacts.cache = &result.analysis;
  verify::analyzer_options analyzer_options;
  analyzer_options.equivalence = options.equivalence;
  result.verification = verify::analyze(artifacts, analyzer_options);
}

/// The one synthesis run behind both ops: parse, build the SBDD, run the
/// shape the options select, then the shared tail (validate, analyze with
/// the switches of `analysis` unless it is null, remap).
run_result synthesize_run(const netlist_source& source,
                          const synthesis_options_v1& options,
                          const lint_options_v1* analysis,
                          const run_caches& caches) {
  if (options.partition && options.separate_robdds)
    throw error(
        "partition and separate_robdds are mutually exclusive (the "
        "separate-ROBDD flow already composes one block per output)");
  core::synthesis_options core = to_core_options(options);
  // A service injects its process-wide caches here; null members keep the
  // core's private per-call caching.
  core.cache = caches.label;
  core.partition_memo = caches.partition;

  frontend::network net = load_network(source);
  if (options.minimize_network) net = frontend::minimize_network(net);
  // The separate-ROBDD flow builds per-output BDDs internally under the
  // declaration order; a permuted order would desynchronize the spec.
  frontend::order_effort order = parse_order(options.variable_order);
  if (options.separate_robdds) order = frontend::order_effort::none;
  const std::vector<int> variable_order = frontend::optimize_order(net, order);
  run_result result;
  result.spec = std::make_unique<spec_bdd>(std::move(net));
  spec_bdd& spec = *result.spec;
  spec.built = frontend::build_sbdd(spec.net, spec.manager, variable_order);

  // The sink must outlive the run; one JSON object per stage.
  std::ofstream trace_file;
  std::optional<json_lines_sink> trace_sink;
  if (!options.trace_json_path.empty()) {
    trace_file.open(options.trace_json_path);
    if (!trace_file)
      throw compact::error("cannot write " + options.trace_json_path);
    trace_sink.emplace(trace_file);
    core.telemetry = &*trace_sink;
  }

  const resource_limit_scope watchdog(
      {core.memory_limit_bytes, core.deadline_seconds});
  const stopwatch clock;
  // Every shape collects garbage at its stage boundaries: the run owns the
  // manager, and only spec.built's roots are read afterwards. The shapes
  // without a pipeline context of their own run the tail over `tail`.
  core::synthesis_context tail;
  tail.manager = &spec.manager;
  tail.telemetry = core.telemetry;
  if (options.partition) {
    // Split the SBDD under the budgets, synthesize every fragment, stitch
    // via bridges. A plan of one fragment falls back to the canonical
    // pipeline, so the design matches an unpartitioned run.
    core::partitioned_synthesis_result r = core::synthesize_partitioned(
        spec.manager, spec.built.roots, spec.built.names, core);
    tail.stats = std::move(r.stats);
    adopt(result.mapped, std::move(r.design));
  } else if (options.separate_robdds) {
    core::synthesis_result r = core::synthesize_separate_robdds(spec.net, core);
    tail.stats = std::move(r.stats);
    result.mapped.internals().mapped = std::move(r.design);
  } else {
    result.pipeline = std::make_unique<core::synthesis_context>();
    core::synthesis_context& ctx = *result.pipeline;
    ctx.manager = &spec.manager;
    ctx.gc_manager = &spec.manager;
    ctx.roots = &spec.built.roots;
    ctx.names = &spec.built.names;
    ctx.options = core;
    ctx.telemetry = core.telemetry;
    ctx.cache = core.cache;
    core::run_synthesis_pipeline(ctx);
    // The context keeps its own copy for the analyzer's mapping checks.
    result.mapped.internals().mapped = ctx.mapped->design;
  }

  // The shared tail runs as pipeline stages, so --trace-json and the stage
  // timings show it.
  core::synthesis_context& ctx = result.pipeline ? *result.pipeline : tail;
  core::pipeline checks;
  if (options.validate)
    checks.add_pass("validate", [&](core::synthesis_context& c) {
      // Validation runs in BDD-variable space (the space the design was
      // synthesized in), before any remapping.
      const design::impl& d = result.mapped.internals();
      result.validation =
          d.partitioned
              ? xbar::validate(*d.partitioned, spec.manager, spec.built.roots,
                               spec.built.names, spec.net.input_count())
              : xbar::validate(d.mapped, spec.manager, spec.built.roots,
                               spec.built.names, spec.net.input_count());
      // The verify pass's EQV001 / PAR003 read this verdict instead of
      // extracting the same design again.
      result.analysis.equivalence = result.validation;
      c.attribute("verdict", result.validation->equivalent ? "pass" : "fail");
      c.metric("fixpoint_iterations",
               static_cast<double>(result.validation->fixpoint_iterations));
      c.metric("extraction_nodes",
               static_cast<double>(result.validation->extraction_nodes));
    });
  if (analysis != nullptr)
    checks.add_pass("verify", [&](core::synthesis_context& c) {
      analyze(result, *analysis);
      const verify::report& r = *result.verification;
      c.attribute("verdict", r.clean() ? "clean" : "dirty");
      c.metric("errors", static_cast<double>(r.error_count()));
      c.metric("warnings", static_cast<double>(r.warning_count()));
      c.metric("notes", static_cast<double>(r.note_count()));
      c.metric("checks_run", static_cast<double>(r.checks_run().size()));
    });
  checks.run(ctx);
  result.stats = std::move(ctx.stats);
  result.stats.synthesis_seconds = clock.seconds();

  remap(result.mapped, variable_order);
  result.mapped.internals().variable_names = input_names(spec.net);
  return result;
}

/// Fold a request-level deadline into the synthesis knobs: the solver's
/// effort budget (time_limit_seconds) can never exceed the deadline, and the
/// run-abort watchdog (deadline_seconds) is armed with the tighter of the
/// two. Deadline 0 leaves the options untouched.
synthesis_options_v1 with_deadline(synthesis_options_v1 options,
                                   double deadline_seconds) {
  if (deadline_seconds > 0.0) {
    options.time_limit_seconds =
        std::min(options.time_limit_seconds, deadline_seconds);
    options.deadline_seconds =
        options.deadline_seconds > 0.0
            ? std::min(options.deadline_seconds, deadline_seconds)
            : deadline_seconds;
  }
  return options;
}

}  // namespace

run_result run_synthesize(const request_v1& request, const run_caches& caches) {
  const synthesis_options_v1 options =
      with_deadline(request.synthesis, request.deadline_seconds);
  // Arm the flight recorder before any work so the postmortem captures the
  // whole run; dump on any failure, then let the exception propagate.
  if (!options.flight_record_path.empty())
    compact::set_flight_record_path(options.flight_record_path);
  try {
    return translated([&] {
      return synthesize_run(request.source, options,
                            options.verify ? &request.lint : nullptr, caches);
    });
  } catch (const std::exception& e) {
    if (!options.flight_record_path.empty())
      compact::dump_flight_postmortem(std::string("api.synthesize failed: ") +
                                      e.what());
    throw;
  }
}

run_result run_lint(const request_v1& request, const run_caches& caches) {
  const lint_options_v1& options = request.lint;
  return translated([&] {
    if (request.design_text.empty()) {
      // Lint a netlist: synthesize it and analyze every intermediate
      // artifact (labeling, mapping, structural, equivalence).
      synthesis_options_v1 synth;
      synth.labeler = options.labeler;
      synth.gamma = options.gamma;
      synth.time_limit_seconds = options.time_limit_seconds;
      synth.threads = options.threads;
      return synthesize_run(request.source,
                            with_deadline(synth, request.deadline_seconds),
                            &options, caches);
    }
    // Lint an existing design against the netlist it claims to implement.
    resource_limits limits;
    limits.deadline_seconds = request.deadline_seconds;
    const resource_limit_scope watchdog(limits);
    run_result result;
    result.mapped = design::from_text(request.design_text);
    result.spec = std::make_unique<spec_bdd>(load_network(request.source));
    result.spec->built =
        frontend::build_sbdd(result.spec->net, result.spec->manager);
    analyze(result, options);
    return result;
  });
}

}  // namespace compact::api
