// Workload plans: the seeded list of circuits and client sessions one run
// replays, built from perfbench/workloads.json and the command-line seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netgen.hpp"

namespace perfbench {

enum class op_kind { synthesize, lint, evaluate };

/// One request of a session. lint and evaluate ops act on the design the
/// session's synthesize op returned.
struct plan_op {
  op_kind kind = op_kind::synthesize;
  int circuit = 0;             // index into plan::circuits
  std::string labeler = "oct";
  double gamma = 0.5;
  double deadline = 0.0;       // request deadline_seconds; 0 = none
  std::vector<bool> assignment;  // evaluate only
};

/// What one client connection sends back to back.
struct session {
  std::vector<plan_op> ops;
};

struct workload_config {
  std::string name;
  std::string labeler;
  std::string cache_limit;       // compact-serve --cache-limit ("" = none)
  double time_limit = 60.0;      // solver budget carried by every request
  std::vector<double> gammas;
  std::vector<double> deadlines;
  double zipf_exponent = 0.0;
  int pool = 0;                  // flow-serve: distinct circuits
  /// Sessions of every lint_every-th circuit of each family (in draw
  /// order) follow their synthesize request with a lint and
  /// evaluates_per_session evaluates of the returned design; 0 = synthesize
  /// only.
  int lint_every = 0;
  /// Families whose circuits may get lint sessions; empty = every family.
  std::vector<std::string> lint_families;
  int evaluates_per_session = 0;
  double synth_per_second = 10.0;  // pool sizing against --seconds
  int min_synth = 100;
  int smoke_synth = 12;          // synthesize requests in --smoke
  int trace_every = 1;           // traced run: every k-th session
  /// Smallest solver budget a request runs with: time_limit, capped by the
  /// smallest deadline (the facade caps the budget at the deadline).
  [[nodiscard]] double min_budget() const;
  struct family {
    std::string name;
    int size_lo = 0, size_hi = 0;
    int size2_lo = 0, size2_hi = 0;
    double weight = 1.0;
    int count = 0;  // > 0: exactly this many circuits, outside the weights
  };
  std::vector<family> families;
};

struct bench_config {
  /// Structure seeds of the two pinned clock-dependent requests.
  std::uint64_t guard_priority_variant = 1;
  std::uint64_t guard_i2c_variant = 1;
  std::vector<workload_config> workloads;
  [[nodiscard]] const workload_config& find(const std::string& name) const;
};

/// Read perfbench/workloads.json; throws on a malformed file.
[[nodiscard]] bench_config load_config(const std::string& path);

struct plan {
  std::vector<circuit> circuits;
  std::vector<session> sessions;
};

/// Synthesize requests a run of `seconds` sends (smoke: w.smoke_synth).
[[nodiscard]] int synth_target(const workload_config& w, double seconds,
                               bool smoke);

/// Build the plan for `w` from `seed` with about `synth_target` synthesize
/// requests. `smoke` shrinks fixed-count families to one circuit each, of
/// their smallest size.
[[nodiscard]] plan make_plan(const workload_config& w, std::uint64_t seed,
                             int synth_target, bool smoke = false);

/// Request-identity key of a synthesize op (circuit, labeler, gamma,
/// deadline): equal keys must produce byte-identical designs.
[[nodiscard]] std::string synth_key(const plan_op& op);

}  // namespace perfbench
