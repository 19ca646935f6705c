// bench_compare — diff two benchmark JSON files and flag regressions.
//
//   bench_compare BASELINE.json CURRENT.json [--threshold FRAC]
//                 [--metric real_time|cpu_time] [--report-only] [--attribute]
//
// Both files use google-benchmark's JSON output format (a top-level
// "benchmarks" array whose entries carry "name" and per-iteration times) —
// the format `bench_micro --json FILE` writes, and the committed
// BENCH_seed.json baseline. Benchmarks are matched by name; a benchmark
// whose time grew by more than the threshold (default 0.25 = +25%) is a
// regression.
//
// --attribute adds a per-benchmark per-counter delta table so a tripped
// gate names WHAT regressed, not just THAT something did: every numeric
// field of every benchmark entry (times, custom counters) plus the
// top-level numeric scalars of a bench harness run-record (reported as the
// "(run)" pseudo-benchmark — memory peaks, shape metrics) is diffed and
// sorted by relative change. In attribution mode a file without a
// "benchmarks" array (a pure run-record) is accepted.
//
// Exit status: 0 when no benchmark regressed (or --report-only was given),
// 1 when at least one regressed, 2 on usage or parse errors. Timing noise
// makes this a tripwire, not a verdict — CI runs it report-only and a human
// reads the table. --attribute never changes the exit code.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "util/json.hpp"
#include "util/table.hpp"
#include "util/telemetry.hpp"

namespace {

using namespace compact;

[[noreturn]] void usage(const std::string& message = {}) {
  if (!message.empty()) std::cerr << "error: " << message << "\n\n";
  std::cerr << "usage: bench_compare BASELINE.json CURRENT.json\n"
               "         [--threshold FRAC] [--metric real_time|cpu_time]\n"
               "         [--report-only] [--attribute]\n";
  std::exit(2);
}

/// name -> time (in the file's own unit) for every concrete benchmark run.
/// With `require_benchmarks` false (attribution mode) a document without a
/// "benchmarks" array — a bench harness run-record — yields an empty map.
std::map<std::string, double> load_times(const std::string& path,
                                         const std::string& metric,
                                         bool require_benchmarks = true) {
  const json::value_ptr doc = json::parse_file(path);
  const json::value* benchmarks = doc->find("benchmarks");
  if (benchmarks == nullptr) {
    if (!require_benchmarks) return {};
    throw error(path + ": no \"benchmarks\" array (google-benchmark JSON?)");
  }
  std::map<std::string, double> times;
  for (const json::value_ptr& entry : benchmarks->as_array()) {
    // Skip aggregate rows (mean/median/stddev of repetitions); only
    // concrete iterations are comparable across files.
    if (const json::value* run_type = entry->find("run_type");
        run_type != nullptr && run_type->as_string() != "iteration")
      continue;
    const json::value* name = entry->find("name");
    const json::value* time = entry->find(metric);
    if (name == nullptr || time == nullptr) continue;
    times.emplace(name->as_string(), time->as_number());
  }
  return times;
}

/// Bookkeeping fields of a google-benchmark entry that never carry signal
/// worth attributing (indices, repetition plumbing, iteration counts that
/// float with wall time).
bool attribution_noise(const std::string& key) {
  return key == "family_index" || key == "per_family_instance_index" ||
         key == "repetition_index" || key == "repetitions" ||
         key == "iterations";
}

/// benchmark -> counter -> value, from either accepted file shape: the
/// numeric fields of every "benchmarks" entry (times + custom counters),
/// and the document's top-level numeric scalars (a bench harness
/// run-record's memory peaks / shape metrics) under "(run)".
std::map<std::string, std::map<std::string, double>> load_counters(
    const std::string& path) {
  const json::value_ptr doc = json::parse_file(path);
  std::map<std::string, std::map<std::string, double>> out;
  for (const auto& [key, member] : doc->as_object())
    if (member->type() == json::kind::number)
      out["(run)"][key] = member->as_number();
  const json::value* benchmarks = doc->find("benchmarks");
  if (benchmarks == nullptr) return out;
  for (const json::value_ptr& entry : benchmarks->as_array()) {
    if (const json::value* run_type = entry->find("run_type");
        run_type != nullptr && run_type->as_string() != "iteration")
      continue;
    const json::value* name = entry->find("name");
    if (name == nullptr) continue;
    for (const auto& [key, member] : entry->as_object())
      if (member->type() == json::kind::number && !attribution_noise(key))
        out[name->as_string()][key] = member->as_number();
  }
  return out;
}

/// The per-counter delta table: which benchmark / counter moved the most
/// between the two files, so a tripped perf gate names its suspect.
void print_attribution(const std::string& baseline_path,
                       const std::string& current_path) {
  struct delta {
    std::string bench;
    std::string counter;
    double baseline;
    double current;
    double relative;  // (current - baseline) / baseline
  };
  const std::map<std::string, std::map<std::string, double>> baseline =
      load_counters(baseline_path);
  const std::map<std::string, std::map<std::string, double>> current =
      load_counters(current_path);

  std::vector<delta> deltas;
  for (const auto& [bench, counters] : baseline) {
    const auto bench_it = current.find(bench);
    if (bench_it == current.end()) continue;
    for (const auto& [counter, base_value] : counters) {
      const auto counter_it = bench_it->second.find(counter);
      if (counter_it == bench_it->second.end()) continue;
      const double current_value = counter_it->second;
      double relative = 0.0;
      if (base_value != 0.0)
        relative = (current_value - base_value) / base_value;
      else if (current_value != 0.0)
        relative = std::numeric_limits<double>::infinity();
      deltas.push_back({bench, counter, base_value, current_value, relative});
    }
  }
  std::sort(deltas.begin(), deltas.end(), [](const delta& a, const delta& b) {
    return std::abs(a.relative) > std::abs(b.relative);
  });

  std::cout << "\nattribution (per-benchmark counter deltas, largest "
               "relative change first):\n";
  table t({"benchmark", "counter", "baseline", "current", "delta"});
  constexpr std::size_t max_rows = 25;
  for (std::size_t i = 0; i < deltas.size() && i < max_rows; ++i) {
    const delta& d = deltas[i];
    std::string rendered;
    if (std::isinf(d.relative)) {
      rendered = "new";
    } else {
      rendered = d.relative >= 0.0 ? "+" : "";
      rendered += cell(100.0 * d.relative, 1);
      rendered += "%";
    }
    t.add_row({d.bench, d.counter, json_number(d.baseline),
               json_number(d.current), rendered});
  }
  t.print(std::cout);
  if (deltas.size() > max_rows)
    std::cout << "(" << deltas.size() - max_rows
              << " smaller delta(s) not shown)\n";

  const auto worst =
      std::max_element(deltas.begin(), deltas.end(),
                       [](const delta& a, const delta& b) {
                         const double ra = std::isinf(a.relative) ? -1.0 : a.relative;
                         const double rb = std::isinf(b.relative) ? -1.0 : b.relative;
                         return ra < rb;
                       });
  if (worst != deltas.end() && worst->relative > 0.0 &&
      !std::isinf(worst->relative))
    std::cout << "top regression: " << worst->bench << "/" << worst->counter
              << " (+" << cell(100.0 * worst->relative, 1) << "%)\n";
  else
    std::cout << "top regression: none\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  std::vector<std::string> files;
  double threshold = 0.25;
  std::string metric = "real_time";
  bool report_only = false;
  bool attribute = false;

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto value = [&]() -> const std::string& {
      if (++i >= args.size()) usage(a + " needs a value");
      return args[i];
    };
    if (a == "--threshold") {
      try {
        threshold = std::stod(value());
      } catch (const std::exception&) {
        usage("--threshold expects a number");
      }
      if (threshold <= 0.0) usage("--threshold must be positive");
    } else if (a == "--metric") {
      metric = value();
      if (metric != "real_time" && metric != "cpu_time")
        usage("--metric must be real_time or cpu_time");
    } else if (a == "--report-only") {
      report_only = true;
    } else if (a == "--attribute") {
      attribute = true;
    } else if (!a.empty() && a[0] == '-') {
      usage("unknown option " + a);
    } else {
      files.push_back(a);
    }
  }
  if (files.size() != 2) usage("need exactly two JSON files");

  try {
    const std::map<std::string, double> baseline =
        load_times(files[0], metric, /*require_benchmarks=*/!attribute);
    const std::map<std::string, double> current =
        load_times(files[1], metric, /*require_benchmarks=*/!attribute);

    table t({"benchmark", "baseline", "current", "ratio", "verdict"});
    int regressions = 0;
    int improvements = 0;
    int compared = 0;
    for (const auto& [name, base_time] : baseline) {
      const auto it = current.find(name);
      if (it == current.end()) {
        t.add_row({name, json_number(base_time), "-", "-", "missing"});
        continue;
      }
      ++compared;
      const double ratio = base_time > 0.0 ? it->second / base_time : 1.0;
      std::string verdict = "ok";
      if (ratio > 1.0 + threshold) {
        verdict = "REGRESSION";
        ++regressions;
      } else if (ratio < 1.0 - threshold) {
        verdict = "improved";
        ++improvements;
      }
      t.add_row({name, json_number(base_time), json_number(it->second),
                 cell(ratio, 3), verdict});
    }
    for (const auto& [name, time] : current)
      if (!baseline.contains(name))
        t.add_row({name, "-", json_number(time), "-", "new"});
    t.print(std::cout);

    std::cout << "\ncompared " << compared << " benchmark(s): " << regressions
              << " regression(s), " << improvements << " improvement(s), "
              << "threshold +" << static_cast<int>(threshold * 100) << "%\n";
    if (attribute) print_attribution(files[0], files[1]);
    if (regressions > 0 && report_only)
      std::cout << "report-only: not failing the run\n";
    return regressions > 0 && !report_only ? 1 : 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
