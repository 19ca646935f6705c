// Labeler registry and the built-in "oct" / "mip" / "staircase" labelers.
#include "core/labelers.hpp"

#include <algorithm>
#include <cstdio>
#include <mutex>
#include <unordered_map>

#include "core/oct_reduce.hpp"
#include "util/error.hpp"

namespace compact::core {
namespace {

/// Deterministic, round-trip-exact double encoding for cache salts.
std::string encode_double(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string encode_optional_int(const std::optional<int>& value) {
  return value ? std::to_string(*value) : std::string("-");
}

const char* engine_name(graph::oct_engine engine) {
  return engine == graph::oct_engine::bnb ? "bnb" : "ilp";
}

/// Method 1 as a pluggable labeler.
class oct_labeler final : public labeler {
 public:
  [[nodiscard]] std::string name() const override { return "oct"; }

  [[nodiscard]] static oct_label_options to_options(
      const labeler_request& request) {
    oct_label_options oct;
    oct.alignment = request.alignment;
    oct.time_limit_seconds = request.time_limit_seconds;
    oct.reduce = request.reduce;
    oct.threads = request.threads;
    return oct;
  }

  [[nodiscard]] std::string cache_salt(
      const labeler_request& request) const override {
    return oct_cache_salt(to_options(request));
  }

  [[nodiscard]] labeler_result label(
      const bdd_graph& graph, const labeler_request& request) const override {
    // Dimension budgets are not part of the OCT objective; the map pass
    // enforces them post hoc (and partitioning splits designs that cannot
    // fit), so a budgeted request labels exactly like an unbudgeted one.
    oct_label_result r = label_minimal_semiperimeter(graph, to_options(request));
    labeler_result result;
    result.l = std::move(r.l);
    result.optimal = r.optimal;
    result.relative_gap = r.relative_gap;
    result.oct_size = r.oct_size;
    result.promoted = r.promoted;
    return result;
  }
};

/// Method 2 as a pluggable labeler.
class mip_labeler final : public labeler {
 public:
  [[nodiscard]] std::string name() const override { return "mip"; }

  [[nodiscard]] static mip_label_options to_options(
      const labeler_request& request) {
    mip_label_options mip;
    mip.gamma = request.gamma;
    mip.alignment = request.alignment;
    mip.time_limit_seconds = request.time_limit_seconds;
    mip.max_rows = request.max_rows;
    mip.max_columns = request.max_columns;
    mip.oct_time_limit_seconds =
        std::max(1.0, request.time_limit_seconds * 0.25);
    mip.reduce = request.reduce;
    mip.threads = request.threads;
    mip.cache = request.cache;
    mip.telemetry = request.telemetry;
    return mip;
  }

  [[nodiscard]] std::string cache_salt(
      const labeler_request& request) const override {
    return mip_cache_salt(to_options(request));
  }

  [[nodiscard]] labeler_result label(
      const bdd_graph& graph, const labeler_request& request) const override {
    mip_label_result r = label_weighted(graph, to_options(request));
    labeler_result result;
    result.l = std::move(r.l);
    result.optimal = r.optimal;
    result.relative_gap = r.relative_gap;
    result.trace = std::move(r.trace);
    return result;
  }
};

/// The prior-work flow-based mapping [16] as a labeler. Its inductive
/// staircase constructions map every BDD node to both a wordline and a
/// bitline joined by an always-on device, which trivially satisfies the
/// crossbar connection constraints at semiperimeter 2n: exactly the all-VH
/// labeling. Run under separate ROBDDs it is the whole prior-work recipe
/// (one ROBDD per output, staircase-mapped, composed along the diagonal).
class staircase_labeler final : public labeler {
 public:
  [[nodiscard]] std::string name() const override { return "staircase"; }

  [[nodiscard]] std::string cache_salt(
      const labeler_request&) const override {
    return "all-vh";  // no request field changes the labeling
  }

  [[nodiscard]] labeler_result label(
      const bdd_graph& graph, const labeler_request&) const override {
    labeler_result result;
    result.l = all_vh_labeling(graph.g.node_count());
    result.optimal = true;  // a fixed construction, nothing to optimize
    return result;
  }
};

struct registry {
  std::mutex mutex;
  std::unordered_map<std::string, std::unique_ptr<labeler>> labelers;
};

registry& global_registry() {
  // The built-ins are registered as part of constructing the singleton, so
  // every lookup path sees them without a separate init call.
  static registry* instance = [] {
    auto* r = new registry;
    r->labelers.emplace("oct", std::make_unique<oct_labeler>());
    r->labelers.emplace("mip", std::make_unique<mip_labeler>());
    r->labelers.emplace("staircase", std::make_unique<staircase_labeler>());
    return r;
  }();
  return *instance;
}

/// Sorted names; the caller must hold `r.mutex`.
std::vector<std::string> names_locked(const registry& r) {
  std::vector<std::string> names;
  names.reserve(r.labelers.size());
  for (const auto& [name, impl] : r.labelers) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace

// Both salts deliberately EXCLUDE the thread count: every labeler is
// required to be bit-identical across thread counts, so a cache entry
// written at --threads 8 must satisfy a --threads 1 request (and the
// determinism tests would catch a violation). They deliberately INCLUDE the
// reduction toggle and oct_reduction_version: reductions change which of
// several equal-cost labelings is found, so entries written with reductions
// off (or under an older rule set) must never be served to a reductions-on
// request.

std::string oct_cache_salt(const oct_label_options& options) {
  return std::string("align=") + (options.alignment ? "1" : "0") +
         ";balance=" + (options.balance ? "1" : "0") +
         ";engine=" + engine_name(options.engine) +
         ";tl=" + encode_double(options.time_limit_seconds) +
         ";reduce=" + (options.reduce ? "1" : "0") +
         ";rv=" + std::to_string(options.reduce ? oct_reduction_version : 0);
}

std::string mip_cache_salt(const mip_label_options& options) {
  return std::string("gamma=") + encode_double(options.gamma) +
         ";align=" + (options.alignment ? "1" : "0") +
         ";tl=" + encode_double(options.time_limit_seconds) +
         ";warm=" + (options.warm_start_with_oct ? "1" : "0") +
         ";oct_tl=" + encode_double(options.oct_time_limit_seconds) +
         ";max_r=" + encode_optional_int(options.max_rows) +
         ";max_c=" + encode_optional_int(options.max_columns) +
         ";reduce=" + (options.reduce ? "1" : "0") +
         ";rv=" + std::to_string(options.reduce ? oct_reduction_version : 0);
}

void register_labeler(std::unique_ptr<labeler> implementation) {
  check(implementation != nullptr, "register_labeler: null labeler");
  const std::string name = implementation->name();
  check(!name.empty(), "register_labeler: labeler has an empty name");
  registry& r = global_registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  r.labelers[name] = std::move(implementation);
}

const labeler& find_labeler(const std::string& name) {
  registry& r = global_registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  const auto it = r.labelers.find(name);
  if (it == r.labelers.end()) {
    std::string known;
    for (const std::string& n : names_locked(r))
      known += (known.empty() ? "" : ", ") + n;
    throw error("unknown labeler '" + name + "' (registered: " + known + ")");
  }
  return *it->second;
}

std::vector<std::string> registered_labeler_names() {
  registry& r = global_registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  return names_locked(r);
}

}  // namespace compact::core
