// Clock-independence guard: a request's design must not depend on the
// solver's wall-clock budget. Every workload's instance pool is replayed at
// two budgets four times apart; any change in design bytes or in the
// `optimal` flag, or a latency move beyond the benchmark's latency bound,
// fails the guard. Two known clock-dependent requests are pinned as cases
// the guard must reject, so a guard that stops seeing them fails too.
#pragma once

#include <cstdint>
#include <string>

#include "plan.hpp"

namespace perfbench {

/// Returns the process exit code: 0 when every pool is clock-independent
/// and both pinned offenders are rejected, 1 otherwise.
[[nodiscard]] int run_guard(const bench_config& cfg, const std::string& serve_bin,
                            const std::string& run_dir,
                            const std::string& benchmark_json,
                            std::uint64_t seed, bool smoke);

}  // namespace perfbench
