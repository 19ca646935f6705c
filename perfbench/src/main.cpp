// perfbench runner: replays seeded workloads closed-loop through
// compact-serve over its unix socket, checks every answer against the
// benchmark's own reference, and prints every metric by name and unit.
//
//   perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
//   perfbench_runner --smoke     all workloads, fixed seed, tiny pools
//   perfbench_runner --guard     clock-independence guard (see guard.cpp)
//
// Common flags: --serve-bin PATH (compact-serve), --config FILE
// (workloads.json), --run-dir DIR (sockets, logs, traces; inside the
// checkout). The last stdout line is one JSON object: correct, attempted,
// failed, metrics. Exit 1 when any output check fails, 2 on usage or setup
// errors.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <limits>
#include <map>

#include "api/compact_api.hpp"
#include "guard.hpp"
#include "plan.hpp"
#include "requests.hpp"
#include "serve_client.hpp"
#include "traced.hpp"
#include "util/json.hpp"
#include "xbar_ref.hpp"

namespace perfbench {
namespace {

using clock_type = std::chrono::steady_clock;

/// Designs with at most this many inputs are checked on every assignment,
/// larger ones on kSampleAssignments seeded assignments.
constexpr int kExhaustiveInputs = 16;
constexpr int kSampleAssignments = 4096;
/// Daemon spawns before and again after the timed phase; setup_s is the
/// median of both batches.
constexpr int kSetupSpawns = 25;

double seconds_since(clock_type::time_point t) {
  return std::chrono::duration<double>(clock_type::now() - t).count();
}

struct args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  bool guard = false;
  std::string inject_fault;  // "", "flip" or "drop-output"
  std::string serve_bin;
  std::string config = "perfbench/workloads.json";
  std::string run_dir = ".bench_build/run";
  std::string benchmark_json = "BENCHMARK.json";
};

[[noreturn]] void usage(const std::string& message) {
  std::cerr << "perfbench: " << message << "\n"
            << "usage: perfbench_runner --workload NAME --seed N --seconds S "
               "--trace 0|1 --serve-bin PATH\n"
               "       perfbench_runner --smoke|--guard --serve-bin PATH\n";
  std::exit(2);
}

args parse_args(int argc, char** argv) {
  args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (++i >= argc) usage(flag + " needs a value");
      return argv[i];
    };
    try {
      if (flag == "--workload") a.workload = value();
      else if (flag == "--seed") a.seed = std::stoull(value());
      else if (flag == "--seconds") a.seconds = std::stod(value());
      else if (flag == "--trace") a.trace = value() == "1";
      else if (flag == "--smoke") a.smoke = true;
      else if (flag == "--guard") a.guard = true;
      else if (flag == "--inject-fault") a.inject_fault = value();
      else if (flag == "--serve-bin") a.serve_bin = value();
      else if (flag == "--config") a.config = value();
      else if (flag == "--run-dir") a.run_dir = value();
      else if (flag == "--benchmark-json") a.benchmark_json = value();
      else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }
  if (a.serve_bin.empty()) usage("--serve-bin is required");
  // The daemon starts in the run directory; keep its path valid there.
  a.serve_bin = std::filesystem::absolute(a.serve_bin).string();
  if (!a.smoke && !a.guard && a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  if (!a.inject_fault.empty() && a.inject_fault != "flip" &&
      a.inject_fault != "drop-output")
    usage("--inject-fault takes flip or drop-output");
  return a;
}

/// Run the runner and every daemon it spawns on one CPU: the highest the
/// process may use, as CPU 0 takes most interrupts. One request is in
/// flight at a time and each runs on one thread (request threads = 1), so
/// no parallelism is lost. What changes is how a request passes between
/// the client, the daemon's reader thread and its pool worker: by a context
/// switch on one CPU instead of by waking an idle vCPU, which a busy host
/// does late and unevenly, so small requests measured the host's load.
void pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (::sched_setaffinity(0, sizeof one, &one) != 0)
      std::cerr << "perfbench: could not pin to CPU " << cpu << "\n";
    return;
  }
}

/// Regularized incomplete beta function I_x(a, b) (Lentz's continued
/// fraction, with the symmetry relation where that converges faster).
double incomplete_beta(double x, double a, double b) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  if (x > (a + 1.0) / (a + b + 2.0)) return 1.0 - incomplete_beta(1.0 - x, b, a);
  const double front = std::exp(std::lgamma(a + b) - std::lgamma(a) -
                                std::lgamma(b) + a * std::log(x) +
                                b * std::log1p(-x)) / a;
  const double tiny = 1e-300;
  double f = 1.0, c = 1.0, d = 0.0;
  for (int i = 0; i <= 100000; ++i) {
    const double m = i / 2;
    const double numerator =
        i == 0       ? 1.0
        : i % 2 == 0 ? (m * (b - m) * x) / ((a + 2.0 * m - 1.0) * (a + 2.0 * m))
                     : -((a + m) * (a + b + m) * x) /
                           ((a + 2.0 * m) * (a + 2.0 * m + 1.0));
    d = 1.0 + numerator * d;
    d = 1.0 / (std::fabs(d) < tiny ? tiny : d);
    c = 1.0 + numerator / c;
    if (std::fabs(c) < tiny) c = tiny;
    f *= c * d;
    if (std::fabs(1.0 - c * d) < 1e-12) break;
  }
  return front * (f - 1.0);
}

/// The q-quantile by the Harrell-Davis estimator: a Beta-weighted average
/// of every order statistic. Nearest rank jumps between neighbouring
/// circuits' latencies when the sample has gaps; this estimate moves
/// smoothly. A failed request is +inf, and then the nearest rank is used so
/// that a failure counts as missing every latency it reaches.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  if (!std::isfinite(v.back())) {
    const auto rank = static_cast<std::size_t>(std::max(1.0, std::ceil(q * n)));
    return v[std::min(rank, v.size()) - 1];
  }
  const double a = q * (n + 1.0), b = (1.0 - q) * (n + 1.0);
  double estimate = 0.0, below = 0.0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    const double upto = incomplete_beta(static_cast<double>(i + 1) / n, a, b);
    estimate += (upto - below) * v[i];
    below = upto;
  }
  return estimate;
}

struct metric {
  double value = 0.0;
  std::string unit;
};

struct run_result {
  std::map<std::string, metric> end_to_end;
  std::map<std::string, std::optional<metric>> per_layer;
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> failures;  // first few reasons
};

/// A tiny always-valid design: the first request a fresh daemon answers.
const char* kProbeDesign =
    "xbar 1\ndim 2 1\ninput 1\noutput 0 f\nd 0 0 +0\nd 1 0 +1\nend\n";

std::vector<std::string> daemon_args(const workload_config& w) {
  // One request is in flight at a time (see replay); the second worker is
  // spare.
  std::vector<std::string> a{"--socket", "serve.sock", "--threads", "2", "--quiet",
                             "--summary-json", "summary.json"};
  if (!w.cache_limit.empty()) {
    a.push_back("--cache-limit");
    a.push_back(w.cache_limit);
  }
  return a;
}

class workload_run {
 public:
  workload_run(const args& a, const workload_config& w, bool smoke)
      : a_(a), w_(w), smoke_(smoke) {}

  run_result run();

 private:
  void warm_up();
  std::unique_ptr<daemon_process> spawn_ready(bool timed);
  void measure_setup();
  void timed_phase();
  void check_outputs();
  void measure();
  void fail(const std::string& why);
  void layer(const std::string& name, std::optional<double> v,
             const std::string& unit) {
    result_.per_layer[name] =
        v ? std::optional<metric>(metric{*v, unit}) : std::nullopt;
  }

  const args& a_;
  const workload_config& w_;
  bool smoke_;
  plan plan_;
  std::string dir_;
  std::vector<double> setups_;
  served_sessions served_;
  double elapsed_ = 0.0;
  long peak_rss_kib_ = -1;
  compact::json::value_ptr summary_;  // the daemon's --summary-json
  run_result result_;
};

void workload_run::fail(const std::string& why) {
  ++result_.failed;
  if (result_.failures.size() < 8) result_.failures.push_back(why);
}

/// Spawn a daemon and wait for the answer to its first request; `timed`
/// records spawn-to-answer in setups_.
std::unique_ptr<daemon_process> workload_run::spawn_ready(bool timed) {
  compact::api::request_v1 first;
  first.id = "ready";
  first.op = "evaluate";
  first.design_text = kProbeDesign;
  first.assignment = "11";
  const auto t0 = clock_type::now();
  auto d = std::make_unique<daemon_process>(a_.serve_bin, daemon_args(w_), dir_,
                                            dir_ + "/serve.sock");
  line_channel ch(d->connect(60.0));
  const op_result r = exchange(ch, first);
  if (!r.answered || !r.response.ok)
    throw std::runtime_error("daemon did not answer its first request");
  if (timed) setups_.push_back(seconds_since(t0));
  return d;
}

void workload_run::measure_setup() {
  for (int k = 0; k < (smoke_ ? 3 : kSetupSpawns); ++k) (void)spawn_ready(true);
}

/// Replay `p`'s sessions closed-loop on one connection to `d`: one request
/// in flight at a time. With two or three connections the timings spread
/// up to eight times as much between runs, and on a shared label cache
/// which requests hit depended on timing. Returns the wall time and fills
/// `served`.
double replay(const plan& p, const workload_config& w, daemon_process& d,
              served_sessions& served) {
  served.assign(p.sessions.size(), {});
  line_channel ch(d.connect(10.0));
  const auto start = clock_type::now();
  for (std::size_t s = 0; s < p.sessions.size(); ++s) {
    const session& sess = p.sessions[s];
    served[s].resize(sess.ops.size());
    for (std::size_t i = 0; i < sess.ops.size(); ++i) {
      const std::string& design = session_design(served, static_cast<int>(s));
      if (sess.ops[i].kind != op_kind::synthesize && design.empty()) continue;
      served[s][i] = exchange(
          ch, make_request(p, w, sess.ops[i],
                           std::to_string(s) + "." + std::to_string(i), design));
    }
  }
  return seconds_since(start);
}

void workload_run::warm_up() {
  // An untimed replay of another seed's requests through a throwaway
  // daemon: the first run after an idle spell otherwise measures a cold
  // host (clock ramp, page cache), not the program.
  // A quarter of the minimum load, fixed-count families cut to their
  // smallest circuit.
  const plan warm = make_plan(w_, a_.seed ^ 0x77617266ULL,
                              std::max(4, smoke_ ? 4 : w_.min_synth / 4), true);
  daemon_process d(a_.serve_bin, daemon_args(w_), dir_, dir_ + "/serve.sock");
  served_sessions ignored;
  (void)replay(warm, w_, d, ignored);
}

void workload_run::timed_phase() {
  const std::unique_ptr<daemon_process> d = spawn_ready(false);
  elapsed_ = replay(plan_, w_, *d, served_);
  peak_rss_kib_ = d->peak_rss_kib();
  d->stop();
  summary_ = compact::json::parse_file(dir_ + "/summary.json");
}

/// Corrupt a design the way a wrong mapping would: flip one literal
/// ("flip"), or lose the first output line ("drop-output").
std::string corrupt(std::string design, const std::string& fault) {
  if (fault == "flip") {
    const std::size_t at = design.find(" +");
    if (at != std::string::npos) design[at + 1] = '-';
  } else if (fault == "drop-output") {
    const std::size_t at = design.find("\noutput ");
    if (at != std::string::npos) design.erase(at, design.find('\n', at + 1) - at);
  }
  return design;
}

void workload_run::check_outputs() {
  std::map<std::string, std::string> first_design;  // synth key -> bytes
  std::map<std::string, std::pair<int, int>> quality;  // synth key -> (S, D)
  const auto check_evaluate = [&](const plan_op& op, op_result r) {
    const circuit& c = plan_.circuits[static_cast<std::size_t>(op.circuit)];
    if (a_.inject_fault == "drop-output" && !r.response.output_names.empty()) {
      r.response.output_names.pop_back();
      r.response.outputs.pop_back();
    }
    std::vector<std::uint64_t> words;
    for (const bool bit : op.assignment) words.push_back(bit ? 1 : 0);
    const std::vector<std::uint64_t> want = c.net.evaluate(words);
    if (r.response.outputs.size() != r.response.output_names.size())
      return fail(c.label() + ": evaluate answered a malformed output list");
    // Every netlist output exactly once, and nothing else.
    std::map<std::string, std::size_t> at;
    for (std::size_t o = 0; o < r.response.output_names.size(); ++o)
      if (!at.emplace(r.response.output_names[o], o).second)
        return fail(c.label() + ": evaluate names output " +
                    r.response.output_names[o] + " twice");
    if (at.size() != c.net.outputs.size())
      return fail(c.label() + ": evaluate answered " + std::to_string(at.size()) +
                  " outputs, the netlist has " +
                  std::to_string(c.net.outputs.size()));
    for (std::size_t k = 0; k < c.net.outputs.size(); ++k) {
      const std::string& name = c.net.outputs[k].first;
      const auto it = at.find(name);
      if (it == at.end())
        return fail(c.label() + ": evaluate misses output " + name);
      if (((want[k] & 1) != 0) != (r.response.outputs[it->second] == '1'))
        return fail(c.label() + ": evaluate output " + name + " is wrong");
    }
  };
  const auto check = [&](const plan_op& op, const op_result& r) {
    ++result_.attempted;
    const circuit& c = plan_.circuits[static_cast<std::size_t>(op.circuit)];
    if (!r.answered) return fail(c.label() + ": no answer");
    if (!r.response.ok)
      return fail(c.label() + ": " +
                  compact::api::error_code_name(r.response.code) + ": " +
                  r.response.error_message);
    switch (op.kind) {
      case op_kind::synthesize: {
        if (!r.response.stats.optimal)
          return fail(c.label() + ": labeling not proven optimal");
        const std::string key = synth_key(op);
        const std::string design = corrupt(r.response.design_text, a_.inject_fault);
        const auto [it, fresh] = first_design.emplace(key, design);
        if (!fresh) {
          if (it->second != design)
            return fail(c.label() + ": repeated request changed the design");
          return;
        }
        std::string error;
        const std::optional<xbar_design> d = parse_xbar(design, error);
        if (!d) return fail(c.label() + ": unreadable design: " + error);
        const std::string mismatch =
            check_design(*d, c.net, kExhaustiveInputs, kSampleAssignments,
                         c.variant ^ a_.seed);
        if (!mismatch.empty()) return fail(c.label() + ": " + mismatch);
        quality[key] = {d->rows + d->cols, std::max(d->rows, d->cols)};
        return;
      }
      case op_kind::lint:
        if (r.response.lint_errors != 0) {
          std::string first;
          for (const auto& d : r.response.diagnostics)
            if (d.severity == "error") {
              first = d.check + " " + d.message;
              break;
            }
          return fail(c.label() + ": lint reported " +
                      std::to_string(r.response.lint_errors) + " error(s): " +
                      first);
        }
        return;
      case op_kind::evaluate:
        return check_evaluate(op, r);
    }
  };
  for (std::size_t s = 0; s < plan_.sessions.size(); ++s)
    for (std::size_t i = 0; i < plan_.sessions[s].ops.size(); ++i)
      check(plan_.sessions[s].ops[i], served_[s][i]);
  double s_sum = 0, d_sum = 0;
  for (const auto& [key, sd] : quality) {
    s_sum += sd.first;
    d_sum += sd.second;
  }
  result_.end_to_end["semiperimeter_sum"] = {s_sum, "count"};
  result_.end_to_end["max_dimension_sum"] = {d_sum, "count"};
}

void workload_run::measure() {
  std::vector<double> synth, lint, eval;
  double designs = 0, queue = 0, service = 0, transport = 0, req_bytes = 0,
         resp_bytes = 0;
  const double inf = std::numeric_limits<double>::infinity();
  for (std::size_t s = 0; s < plan_.sessions.size(); ++s)
    for (std::size_t i = 0; i < plan_.sessions[s].ops.size(); ++i) {
      const op_result& r = served_[s][i];
      const bool ok = r.answered && r.response.ok;
      const double latency = ok ? r.latency : inf;
      switch (plan_.sessions[s].ops[i].kind) {
        case op_kind::synthesize:
          synth.push_back(latency);
          if (ok) ++designs;
          break;
        case op_kind::lint:
          lint.push_back(latency);
          break;
        case op_kind::evaluate:
          eval.push_back(latency);
          break;
      }
      if (!r.answered) continue;
      queue += r.response.queue_seconds;
      service += r.response.service_seconds;
      transport += r.latency - r.response.service_seconds - r.response.queue_seconds;
      req_bytes += static_cast<double>(r.request_bytes);
      resp_bytes += static_cast<double>(r.response_bytes);
    }
  const compact::json::value& cache = summary_->at("caches").at("labeling");
  const double hits = cache.at("hits").as_number();
  const double lookups = hits + cache.at("misses").as_number();
  std::cout << "info " << w_.name << " synthesize_requests " << synth.size()
            << " lint_requests " << lint.size() << " evaluate_requests "
            << eval.size() << " timed_phase_s " << elapsed_
            << " label_cache_hits " << hits << " label_cache_lookups " << lookups
            << " label_cache_evictions " << cache.at("evictions").as_number()
            << "\n";
  auto& e = result_.end_to_end;
  e["designs_per_s"] = {designs / elapsed_, "1/s"};
  e["latency_p50_s"] = {quantile(synth, 0.5), "s"};
  e["latency_p90_s"] = {quantile(synth, 0.9), "s"};
  e["lint_p50_s"] = {quantile(lint, 0.5), "s"};
  e["evaluate_p50_s"] = {quantile(eval, 0.5), "s"};
  e["setup_s"] = {quantile(setups_, 0.5), "s"};
  e["peak_rss_mb"] = {static_cast<double>(peak_rss_kib_) / 1024.0, "MB"};
  layer("serve.queue_s", queue, "s");
  layer("serve.transport_s", transport, "s");
  layer("api.service_s", service, "s");
  layer("api.request_bytes", req_bytes, "bytes");
  layer("api.response_bytes", resp_bytes, "bytes");
  layer("core.label_cache_hit_ratio", lookups > 0 ? hits / lookups : 0.0, "ratio");
  layer("core.label_cache_evictions", cache.at("evictions").as_number(), "count");
}

run_result workload_run::run() {
  plan_ = make_plan(w_, a_.seed, synth_target(w_, a_.seconds, smoke_), smoke_);
  dir_ = a_.run_dir + "/" + std::to_string(::getpid());
  std::filesystem::create_directories(dir_);

  warm_up();
  measure_setup();
  timed_phase();
  measure_setup();
  check_outputs();

  measure();

  if (a_.trace || smoke_) {
    const traced_result t = run_traced(plan_, w_, served_);
    std::filesystem::create_directories(a_.run_dir + "/traces");
    write_spans(t, a_.run_dir + "/traces/" + w_.name + "-" +
                       std::to_string(a_.seed) + ".json");
    const auto self = [&](const std::string& name) {
      const auto it = t.self_seconds.find(name);
      return it == t.self_seconds.end() ? 0.0 : it->second;
    };
    for (const char* name :
         {"api.serde", "frontend.parse", "bdd.build", "core.build_graph",
          "core.map", "graph.oct", "milp.label", "xbar.serialize", "xbar.read",
          "xbar.evaluate", "verify.analyze"})
      layer(std::string(name) + "_s", self(name), "s");
    for (const auto& [name, value] : t.counts) {
      const bool bytes = name.ends_with("_bytes");
      layer(name, value,
            name.ends_with("ratio") ? "ratio" : (bytes ? "bytes" : "count"));
    }
    const double coverage = t.wall > 0 ? t.covered / t.wall : 0.0;
    layer("trace.span_coverage", coverage, "ratio");
    layer("trace.overhead_s", t.overhead, "s");
    std::cout << "info " << w_.name << " traced_ops " << t.ops << " traced_wall_s "
              << t.wall << " spans " << t.spans.size() << "\n";
    // Checked: every traced op's design identity, and the span coverage.
    result_.attempted += t.ops + 1;
    for (int i = 0; i < t.design_mismatches; ++i)
      fail("traced design differs from the served design");
    if (coverage < 0.9)
      fail("spans cover only " + std::to_string(100.0 * coverage) +
           "% of the traced run");
  }
  std::filesystem::remove_all(dir_);
  return result_;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

void print_metric(const std::string& prefix, const std::string& name,
                  const std::optional<metric>& m) {
  if (m)
    std::cout << "metric " << prefix << name << " " << number(m->value) << " "
              << m->unit << "\n";
  else
    std::cout << "metric " << prefix << name << " absent\n";
}

std::string json_metrics(
    const std::vector<std::pair<std::string, std::optional<metric>>>& ms) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, m] : ms) {
    if (!m) continue;  // a counter the program stopped exporting
    out += std::string(first ? "" : ", ") + "\"" + name + "\": {\"value\": " +
           number(m->value) + ", \"unit\": \"" + m->unit + "\"}";
    first = false;
  }
  return out + "}";
}

int report(const std::vector<std::pair<std::string, run_result>>& runs,
           bool per_layer, bool prefixed) {
  std::vector<std::pair<std::string, std::optional<metric>>> chosen;
  long attempted = 0, failed = 0;
  for (const auto& [workload, r] : runs) {
    const std::string prefix = prefixed ? workload + "/" : "";
    for (const auto& [name, m] : r.end_to_end) {
      print_metric(prefix, name, m);
      if (!per_layer || prefixed) chosen.emplace_back(prefix + name, m);
    }
    const double share = r.attempted > 0 ? static_cast<double>(r.failed) /
                                               static_cast<double>(r.attempted)
                                         : 0.0;
    print_metric(prefix, "failed_share", metric{share, "ratio"});
    for (const auto& [name, m] : r.per_layer) {
      print_metric(prefix, name, m);
      if (per_layer || prefixed) chosen.emplace_back(prefix + name, m);
    }
    for (const std::string& why : r.failures)
      std::cerr << "perfbench: " << workload << ": check failed: " << why << "\n";
    attempted += r.attempted;
    failed += r.failed;
  }
  const bool correct = failed == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << json_metrics(chosen) << "}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const args a = parse_args(argc, argv);
  pin_to_one_cpu();
  try {
    const bench_config cfg = load_config(a.config);
    if (a.guard)
      return run_guard(cfg, a.serve_bin, a.run_dir, a.benchmark_json, a.seed,
                       a.smoke);
    std::vector<std::pair<std::string, run_result>> runs;
    if (a.smoke) {
      for (const workload_config& w : cfg.workloads) {
        args smoke = a;
        smoke.seed = 7;
        runs.emplace_back(w.name, workload_run(smoke, w, true).run());
      }
      return report(runs, true, true);
    }
    runs.emplace_back(a.workload,
                      workload_run(a, cfg.find(a.workload), false).run());
    return report(runs, a.trace, false);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
