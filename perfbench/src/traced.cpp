#include "traced.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <set>
#include <sstream>

#include "bdd/manager.hpp"
#include "bdd/stats.hpp"
#include "core/bdd_graph.hpp"
#include "core/label_cache.hpp"
#include "core/labelers.hpp"
#include "core/labeling.hpp"
#include "core/mapping.hpp"
#include "frontend/blif.hpp"
#include "frontend/to_bdd.hpp"
#include "util/memtrack.hpp"
#include "util/metrics.hpp"
#include "verify/analyzer.hpp"
#include "verify/checks.hpp"
#include "verify/electrical.hpp"
#include "xbar/evaluate.hpp"
#include "xbar/serialize.hpp"

namespace perfbench {
namespace {

using clock_type = std::chrono::steady_clock;

class tracer {
 public:
  explicit tracer(traced_result& out) : out_(out), origin_(clock_type::now()) {}

  /// Run `f` inside a span named `name` under the currently open span.
  template <typename F>
  auto in(const std::string& name, F&& f) -> decltype(f()) {
    const int index = open(name);
    struct closer {
      tracer& t;
      int i;
      ~closer() { t.close(i); }
    } guard{*this, index};
    return f();
  }

  void begin_request(int serial) { request_ = serial; }
  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(clock_type::now() - origin_).count();
  }

 private:
  int open(const std::string& name) {
    span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.request = request_;
    s.start = now();
    out_.spans.push_back(std::move(s));
    stack_.push_back(static_cast<int>(out_.spans.size()) - 1);
    return stack_.back();
  }
  void close(int index) {
    out_.spans[static_cast<std::size_t>(index)].end = now();
    stack_.pop_back();
  }

  traced_result& out_;
  clock_type::time_point origin_;
  std::vector<int> stack_;
  int request_ = -1;
};

/// A registry metric read around a call. Absent when the program does not
/// register it even after the warm-up exercised its layer.
struct registry_reader {
  std::set<std::string> names;
  void refresh() {
    names.clear();
    for (const auto& [name, kind] : compact::global_metrics().names())
      names.insert(name);
  }
  [[nodiscard]] bool has(const std::string& name) const {
    return names.count(name) != 0;
  }
  [[nodiscard]] double counter(const std::string& name) const {
    return has(name)
               ? static_cast<double>(compact::global_metrics().counter(name).value())
               : 0.0;
  }
};

/// "16K" -> 16384 (K / M / G suffixes, as compact-serve --cache-limit).
std::uint64_t parse_bytes(const std::string& text) {
  std::uint64_t scale = 1;
  std::string digits = text;
  switch (digits.empty() ? ' ' : digits.back()) {
    case 'K': case 'k': scale = 1024; break;
    case 'M': case 'm': scale = 1024 * 1024; break;
    case 'G': case 'g': scale = 1024 * 1024 * 1024; break;
    default: break;
  }
  if (scale != 1) digits.pop_back();
  return std::stoull(digits) * scale;
}

std::vector<std::string> input_names(const compact::frontend::network& net) {
  std::vector<std::string> names;
  for (const int i : net.inputs()) names.push_back(net.node(i).name);
  return names;
}

/// Everything one traced run accumulates besides spans.
struct accumulators {
  double netlist_bytes = 0, sbdd_nodes = 0, ite_calls = 0;
  double graph_nodes = 0, graph_edges = 0, vh_count = 0;
  double kernel_nodes = 0, original_nodes = 0;
  double lp_iterations = 0, bnb_nodes = 0, design_bytes = 0;
};

class traced_runner {
 public:
  traced_runner(const plan& p, const workload_config& w, traced_result& out)
      : p_(p), w_(w), out_(out), t_(out) {
    // compact-serve splits --cache-limit evenly between its label and
    // partition caches; give this run's label cache the same share.
    if (!w.cache_limit.empty()) cache_.set_capacity_bytes(parse_bytes(w.cache_limit) / 2);
  }

  void warm_up();
  void run(const served_sessions& served);

 private:
  /// Parse + SBDD build (identity variable order, as the facade uses by
  /// default); counts ite calls through the registry.
  struct built {
    compact::frontend::network net;
    std::unique_ptr<compact::bdd::manager> m;
    compact::frontend::sbdd sbdd;
  };
  built parse_and_build(const std::string& blif, bool with_order);

  std::string synthesize(const compact::api::request_v1& req);
  std::size_t lint(const compact::api::request_v1& req);
  std::string evaluate(const compact::api::request_v1& req);
  void serde_request(const compact::api::request_v1& req);
  void serde_response(const compact::api::response_v1& resp);

  const plan& p_;
  const workload_config& w_;
  traced_result& out_;
  tracer t_;
  registry_reader reg_;
  accumulators acc_;
  compact::core::labeling_cache cache_;  // pipeline memo + MIP warm starts
};

traced_runner::built traced_runner::parse_and_build(const std::string& blif,
                                                    bool with_order) {
  built b;
  b.net = t_.in("frontend.parse", [&] {
    std::istringstream in(blif);
    return compact::frontend::parse_blif(in);
  });
  acc_.netlist_bytes += static_cast<double>(blif.size());
  const double ite_before = reg_.counter("bdd.ite_calls");
  t_.in("bdd.build", [&] {
    b.m = std::make_unique<compact::bdd::manager>(b.net.input_count());
    if (with_order) {
      const std::vector<int> order = compact::frontend::optimize_order(
          b.net, compact::frontend::order_effort::none);
      b.sbdd = compact::frontend::build_sbdd(b.net, *b.m, order);
    } else {
      b.sbdd = compact::frontend::build_sbdd(b.net, *b.m);
    }
    b.m->publish_metrics();
  });
  acc_.ite_calls += reg_.counter("bdd.ite_calls") - ite_before;
  acc_.sbdd_nodes += static_cast<double>(
      compact::bdd::collect_reachable(*b.m, b.sbdd.roots).nodes.size());
  return b;
}

void traced_runner::serde_request(const compact::api::request_v1& req) {
  t_.in("api.serde", [&] {
    const std::string line = compact::api::to_json(req);
    return compact::api::request_from_json(line).id.size();
  });
}

void traced_runner::serde_response(const compact::api::response_v1& resp) {
  t_.in("api.serde", [&] {
    const std::string line = compact::api::to_json(resp);
    return compact::api::response_from_json(line).id.size();
  });
}

std::string traced_runner::synthesize(const compact::api::request_v1& req) {
  namespace core = compact::core;
  built b = parse_and_build(req.source.text, true);
  const core::bdd_graph graph = t_.in("core.build_graph", [&] {
    return core::build_bdd_graph(*b.m, b.sbdd.roots, b.sbdd.names);
  });
  acc_.graph_nodes += static_cast<double>(graph.g.node_count());
  acc_.graph_edges += static_cast<double>(graph.g.edge_count());

  // The facade caps the solver budget at the request deadline.
  const double tl = req.deadline_seconds > 0.0
                        ? std::min(req.synthesis.time_limit_seconds,
                                   req.deadline_seconds)
                        : req.synthesis.time_limit_seconds;
  const auto run_oct = [&](const core::oct_label_options& oct) {
    const double kernel_before = reg_.counter("oct_reduce.kernel_nodes");
    const double original_before = reg_.counter("oct_reduce.original_nodes");
    core::oct_label_result r = t_.in("graph.oct", [&] {
      return core::label_minimal_semiperimeter(graph, oct);
    });
    acc_.kernel_nodes += reg_.counter("oct_reduce.kernel_nodes") - kernel_before;
    acc_.original_nodes +=
        reg_.counter("oct_reduce.original_nodes") - original_before;
    acc_.vh_count += core::compute_stats(r.l).vh_count;
    return r;
  };

  core::labeling labels;
  if (req.synthesis.labeler == "oct") {
    core::oct_label_options oct;
    oct.time_limit_seconds = tl;
    const core::label_cache_key key =
        core::make_label_cache_key(graph, "oct", core::oct_cache_salt(oct));
    if (auto hit = cache_.find(key)) {
      labels = hit->l;
    } else {
      core::oct_label_result r = run_oct(oct);
      labels = r.l;
      core::cached_labeling entry;
      entry.l = r.l;
      entry.optimal = r.optimal;
      entry.oct_size = r.oct_size;
      entry.promoted = r.promoted;
      cache_.store(key, std::move(entry));
    }
  } else {
    core::mip_label_options mip;
    mip.gamma = req.synthesis.gamma;
    mip.time_limit_seconds = tl;
    mip.oct_time_limit_seconds = std::max(1.0, tl * 0.25);
    mip.cache = &cache_;
    const core::label_cache_key key =
        core::make_label_cache_key(graph, "mip", core::mip_cache_salt(mip));
    if (auto hit = cache_.find(key)) {
      labels = hit->l;
    } else {
      // Fill the warm start first so milp.label times the MIP alone.
      core::oct_label_options warm;
      warm.time_limit_seconds =
          std::min(mip.oct_time_limit_seconds, std::max(1.0, tl));
      const core::label_cache_key warm_key =
          core::make_label_cache_key(graph, "oct", core::oct_cache_salt(warm));
      if (!cache_.find(warm_key)) {
        core::oct_label_result r = run_oct(warm);
        core::cached_labeling entry;
        entry.l = r.l;
        entry.optimal = r.optimal;
        entry.oct_size = r.oct_size;
        entry.promoted = r.promoted;
        cache_.store(warm_key, std::move(entry));
      }
      const double lp_before = reg_.counter("milp.bnb.lp_iterations");
      const double nodes_before = reg_.counter("milp.bnb.nodes_explored");
      core::mip_label_result r =
          t_.in("milp.label", [&] { return core::label_weighted(graph, mip); });
      acc_.lp_iterations += reg_.counter("milp.bnb.lp_iterations") - lp_before;
      acc_.bnb_nodes += reg_.counter("milp.bnb.nodes_explored") - nodes_before;
      labels = r.l;
      core::cached_labeling entry;
      entry.l = r.l;
      entry.optimal = r.optimal;
      entry.relative_gap = r.relative_gap;
      cache_.store(key, std::move(entry));
    }
  }
  const core::mapping_result mapped =
      t_.in("core.map", [&] { return core::map_to_crossbar(graph, labels); });
  std::string text = t_.in("xbar.serialize", [&] {
    std::ostringstream os;
    compact::xbar::write_design(mapped.design, os, input_names(b.net));
    return os.str();
  });
  acc_.design_bytes += static_cast<double>(text.size());
  return text;
}

std::size_t traced_runner::lint(const compact::api::request_v1& req) {
  namespace verify = compact::verify;
  built b = parse_and_build(req.source.text, false);
  const compact::xbar::loaded_design loaded = t_.in("xbar.read", [&] {
    std::istringstream in(req.design_text);
    return compact::xbar::read_design(in);
  });
  return t_.in("verify.analyze", [&] {
    verify::artifacts artifacts;
    artifacts.design = &loaded.design;
    artifacts.spec = b.m.get();
    artifacts.spec_roots = &b.sbdd.roots;
    artifacts.spec_names = &b.sbdd.names;
    artifacts.variable_count = b.net.input_count();
    verify::electrical_options electrical;
    electrical.margin_threshold = req.lint.margin_threshold;
    if (req.lint.electrical) artifacts.electrical = &electrical;
    verify::analysis_cache cache;
    artifacts.cache = &cache;
    verify::analyzer_options options;
    options.equivalence = req.lint.equivalence;
    return verify::analyze(artifacts, options).error_count();
  });
}

std::string traced_runner::evaluate(const compact::api::request_v1& req) {
  const compact::xbar::loaded_design loaded = t_.in("xbar.read", [&] {
    std::istringstream in(req.design_text);
    return compact::xbar::read_design(in);
  });
  return t_.in("xbar.evaluate", [&] {
    std::vector<bool> assignment;
    for (const char c : req.assignment) assignment.push_back(c == '1');
    std::string bits;
    for (const bool v : compact::xbar::evaluate(loaded.design, assignment))
      bits += v ? '1' : '0';
    return bits;
  });
}

void traced_runner::warm_up() {
  // One tiny request per op through every layer, untimed: registers the
  // counters each layer exports, so a counter still missing afterwards is
  // one the program stopped exporting.
  const circuit c = generate("mux", 2, 0, 1);
  plan tiny;
  tiny.circuits.push_back(c);
  plan_op op;
  op.labeler = "mip";
  const compact::api::request_v1 synth = make_request(tiny, w_, op, "warm", "");
  const std::string design = synthesize(synth);
  op.kind = op_kind::lint;
  (void)lint(make_request(tiny, w_, op, "warm", design));
  op.kind = op_kind::evaluate;
  op.assignment.assign(c.net.inputs.size(), true);
  (void)evaluate(make_request(tiny, w_, op, "warm", design));
  out_.spans.clear();
  acc_ = {};
  cache_.clear();  // also zeroes its counters
  compact::memtrack_account("milp.tableau").reset();
  reg_.refresh();
}

void traced_runner::run(const served_sessions& served) {
  const double start = t_.now();
  int serial = 0;
  const auto trace_op = [&](const plan_op& op, int session_index,
                            const op_result& answer) {
    if (!answer.answered || !answer.response.ok) return;
    const std::string& design = session_design(served, session_index);
    const compact::api::request_v1 req =
        make_request(p_, w_, op, "t" + std::to_string(serial), design);
    t_.begin_request(serial++);
    ++out_.ops;
    t_.in("request", [&] {
      serde_request(req);
      switch (op.kind) {
        case op_kind::synthesize:
          if (synthesize(req) != answer.response.design_text)
            ++out_.design_mismatches;
          break;
        case op_kind::lint:
          (void)lint(req);
          break;
        case op_kind::evaluate:
          (void)evaluate(req);
          break;
      }
      serde_response(answer.response);
    });
  };
  const auto every = static_cast<std::size_t>(w_.trace_every);
  for (std::size_t s = 0; s < p_.sessions.size(); s += every)
    for (std::size_t i = 0; i < p_.sessions[s].ops.size(); ++i)
      trace_op(p_.sessions[s].ops[i], static_cast<int>(s), served[s][i]);
  out_.wall = t_.now() - start;

  // Self time: each span's duration minus the part its children cover.
  std::vector<double> child(out_.spans.size(), 0.0);
  for (const span& s : out_.spans)
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  for (std::size_t i = 0; i < out_.spans.size(); ++i) {
    const span& s = out_.spans[i];
    const double self = (s.end - s.start) - child[i];
    out_.self_seconds[s.name] += self;
    if (s.parent >= 0) out_.covered += self;
  }

  compact::publish_memtrack_metrics();
  reg_.refresh();
  auto& c = out_.counts;
  const auto exported = [&](const char* metric, double value) {
    return reg_.has(metric) ? std::optional<double>(value) : std::nullopt;
  };
  c["frontend.netlist_bytes"] = acc_.netlist_bytes;
  c["bdd.sbdd_nodes"] = acc_.sbdd_nodes;
  c["bdd.ite_calls"] = exported("bdd.ite_calls", acc_.ite_calls);
  c["core.graph_nodes"] = acc_.graph_nodes;
  c["core.graph_edges"] = acc_.graph_edges;
  c["graph.oct_kernel_ratio"] = exported(
      "oct_reduce.kernel_nodes",
      acc_.original_nodes > 0 ? acc_.kernel_nodes / acc_.original_nodes : 0.0);
  c["graph.vh_count"] = acc_.vh_count;
  c["milp.lp_iterations"] = exported("milp.bnb.lp_iterations", acc_.lp_iterations);
  c["milp.bnb_nodes"] = exported("milp.bnb.nodes_explored", acc_.bnb_nodes);
  const char* tableau = "mem.milp.tableau.peak_bytes";
  c["milp.tableau_peak_bytes"] =
      exported(tableau, reg_.has(tableau)
                            ? compact::global_metrics().gauge(tableau).value()
                            : 0.0);
  c["xbar.design_bytes"] = acc_.design_bytes;
}

/// Seconds one empty span costs, open to close, nested one deep as layer
/// spans are: the median of several timed batches.
double span_cost() {
  constexpr int kBatch = 4096;
  std::vector<double> per_span;
  for (int round = 0; round < 9; ++round) {
    traced_result scratch;
    scratch.spans.reserve(2 * kBatch);  // as a long run's vector, grown
    tracer t(scratch);
    const auto t0 = clock_type::now();
    for (int i = 0; i < kBatch; ++i)
      t.in("request", [&] { return t.in("frontend.parse", [] { return 0; }); });
    per_span.push_back(
        std::chrono::duration<double>(clock_type::now() - t0).count() /
        (2.0 * kBatch));
  }
  std::nth_element(per_span.begin(), per_span.begin() + 4, per_span.end());
  return per_span[4];
}

}  // namespace

traced_result run_traced(const plan& p, const workload_config& w,
                         const served_sessions& served) {
  // The daemon observes itself with both facilities on; so does this run.
  compact::set_metrics_enabled(true);
  compact::set_memtrack_enabled(true);
  traced_result out;
  traced_runner runner(p, w, out);
  runner.warm_up();
  runner.run(served);
  out.overhead = span_cost() * static_cast<double>(out.spans.size());
  return out;
}

void write_spans(const traced_result& t, const std::string& path) {
  std::ofstream os(path);
  os << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < t.spans.size(); ++i) {
    const span& s = t.spans[i];
    os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << s.start * 1e6
       << ",\"dur\":" << (s.end - s.start) * 1e6 << ",\"args\":{\"request\":"
       << s.request << ",\"parent\":" << s.parent << "}}";
  }
  os << "\n]}\n";
}

}  // namespace perfbench
