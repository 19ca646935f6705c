#include "bench_common.hpp"

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "util/error.hpp"
#include "util/memtrack.hpp"
#include "util/telemetry.hpp"

namespace compact::bench {

core::synthesis_options mip_options(double gamma, double time_limit) {
  core::synthesis_options options;
  options.labeler = "mip";
  options.gamma = gamma;
  options.time_limit_seconds = time_limit;
  return options;
}

core::synthesis_options oct_options(double time_limit) {
  core::synthesis_options options;
  options.labeler = "oct";
  options.time_limit_seconds = time_limit;
  return options;
}

double reduction_percent(double ours, double baseline) {
  if (baseline == 0.0) return 0.0;
  return 100.0 * (1.0 - ours / baseline);
}

double normalized_average(const std::vector<double>& ours,
                          const std::vector<double>& baseline) {
  check(ours.size() == baseline.size() && !ours.empty(),
        "normalized_average: size mismatch");
  double sum = 0.0;
  for (std::size_t i = 0; i < ours.size(); ++i)
    sum += baseline[i] == 0.0 ? 1.0 : ours[i] / baseline[i];
  return sum / static_cast<double>(ours.size());
}

void shape_check(bool holds, const std::string& claim) {
  std::cout << "SHAPE-CHECK [" << (holds ? "PASS" : "FAIL") << "] " << claim
            << "\n";
}

namespace {

[[noreturn]] void bench_usage(const char* program, bool allow_json) {
  std::cerr << "usage: " << program << " [--threads N]"
            << (allow_json ? " [--json FILE]" : "") << "\n";
  std::exit(2);
}

bench_args parse_args(int argc, char** argv, bool allow_json) {
  bench_args parsed;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--threads" && i + 1 < argc) {
      try {
        std::size_t consumed = 0;
        const std::string text = argv[++i];
        parsed.parallel.threads = std::stoi(text, &consumed);
        if (consumed != text.size() || parsed.parallel.threads < 1)
          throw error("bad thread count");
      } catch (const std::exception&) {
        bench_usage(argv[0], allow_json);
      }
    } else if (allow_json && a == "--json" && i + 1 < argc) {
      parsed.json_path = argv[++i];
    } else {
      bench_usage(argv[0], allow_json);
    }
  }
  // Byte accounting rides along on every harness run so the --json
  // run-record can stamp memory peaks (observation only: results are
  // bit-identical with memtrack on or off).
  set_memtrack_enabled(true);
  return parsed;
}

}  // namespace

parallel_options parse_parallel(int argc, char** argv) {
  return parse_args(argc, argv, /*allow_json=*/false).parallel;
}

bench_args parse_bench_args(int argc, char** argv) {
  return parse_args(argc, argv, /*allow_json=*/true);
}

namespace {

// Build "\"escaped\"" with += rather than operator+ chains; GCC 12's
// -Wrestrict misfires on the temporary-chaining form.
std::string quoted(const std::string& value) {
  std::string text = "\"";
  text += json_escape(value);
  text += "\"";
  return text;
}

}  // namespace

void json_report::scalar(const std::string& key, const std::string& value) {
  scalars_.emplace_back(key, quoted(value));
}

void json_report::scalar(const std::string& key, double value) {
  scalars_.emplace_back(key, json_number(value));
}

json_report::record& json_report::record::field(const std::string& key,
                                                const std::string& value) {
  fields_.emplace_back(key, quoted(value));
  return *this;
}

json_report::record& json_report::record::field(const std::string& key,
                                                double value) {
  fields_.emplace_back(key, json_number(value));
  return *this;
}

std::string json_report::record::body() const {
  std::string body = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) body += ", ";
    body += quoted(fields_[i].first);
    body += ": ";
    body += fields_[i].second;
  }
  body += "}";
  return body;
}

void json_report::add_record(const std::string& array_key, const record& r) {
  for (auto& [key, items] : arrays_) {
    if (key == array_key) {
      items.push_back(r.body());
      return;
    }
  }
  arrays_.emplace_back(array_key, std::vector<std::string>{r.body()});
}

void json_report::write(std::ostream& os) const {
  // Run-record stamp (schema version 2): every --json artifact carries its
  // provenance (schema version, git revision from $COMPACT_GIT_SHA) and, when
  // byte accounting ran, the memory peaks — so bench_compare's attribution
  // mode can name what changed between two runs. Harness-set scalars with
  // the same key win over the stamp.
  std::vector<std::pair<std::string, std::string>> stamp;
  const auto harness_set = [&](const std::string& key) {
    for (const auto& [existing, value] : scalars_) {
      (void)value;
      if (existing == key) return true;
    }
    return false;
  };
  if (!harness_set("schema_version"))
    stamp.emplace_back("schema_version", json_number(2.0));
  if (!harness_set("git_sha")) {
    const char* sha = std::getenv("COMPACT_GIT_SHA");
    stamp.emplace_back("git_sha", quoted(sha != nullptr ? sha : "unknown"));
  }
  if (memtrack_enabled()) {
    for (const mem_account* account : memtrack_accounts()) {
      const std::string key = "mem." + account->name() + ".peak_bytes";
      if (!harness_set(key))
        stamp.emplace_back(key,
                           json_number(static_cast<double>(account->peak())));
    }
    if (!harness_set("mem.process.peak_bytes"))
      stamp.emplace_back(
          "mem.process.peak_bytes",
          json_number(static_cast<double>(memtrack_process_peak())));
  }

  os << "{\n";
  bool first = true;
  for (const auto& [key, value] : stamp) {
    if (!first) os << ",\n";
    first = false;
    os << "  \"" << json_escape(key) << "\": " << value;
  }
  for (const auto& [key, value] : scalars_) {
    if (!first) os << ",\n";
    first = false;
    os << "  \"" << json_escape(key) << "\": " << value;
  }
  for (const auto& [key, items] : arrays_) {
    if (!first) os << ",\n";
    first = false;
    os << "  \"" << json_escape(key) << "\": [\n";
    for (std::size_t i = 0; i < items.size(); ++i)
      os << "    " << items[i] << (i + 1 < items.size() ? "," : "") << "\n";
    os << "  ]";
  }
  os << "\n}\n";
}

void json_report::write_file(const std::string& path) const {
  std::ofstream file(path);
  if (!file) {
    std::cerr << "error: cannot write " << path << "\n";
    std::exit(1);
  }
  write(file);
  std::cout << "wrote " << path << "\n";
}

std::vector<suite_run> run_suite_vs_baseline(
    const std::vector<frontend::benchmark_spec>& suite,
    const core::synthesis_options& options, const parallel_options& parallel) {
  // Fan out at circuit level only: each worker runs one circuit's COMPACT
  // and staircase synthesis serially, so threads are not multiplied.
  core::synthesis_options per_circuit = options;
  per_circuit.parallel = {};
  // The prior-work flow: per-output ROBDDs under the all-VH labeling.
  core::synthesis_options staircase;
  staircase.labeler = "staircase";
  staircase.separate_robdds = true;
  return parallel_map(parallel, suite.size(), [&](std::size_t i) {
    return suite_run{&suite[i], core::synthesize(suite[i].net, per_circuit),
                     core::synthesize(suite[i].net, staircase)};
  });
}

}  // namespace compact::bench
