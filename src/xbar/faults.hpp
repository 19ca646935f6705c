// Device-fault injection and yield analysis.
//
// Fabricated crossbars suffer stuck devices: a junction stuck OFF can break
// every path through its memristor, one stuck ON can create sneak paths
// that flip outputs to 1. Flow-based designs are evaluated through exactly
// these paths, so fault tolerance is part of adopting the paper's approach
// in practice. This module injects stuck-at faults and measures functional
// yield against the fault-free design.
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "xbar/crossbar.hpp"

namespace compact::xbar {

enum class fault_kind : std::uint8_t { stuck_off, stuck_on };

struct fault {
  int row = 0;
  int column = 0;
  fault_kind kind = fault_kind::stuck_off;
};

/// A copy of `design` with `faults` applied (stuck_off junctions become
/// literal 'off', stuck_on become 'on', overriding their programming).
/// Throws compact::error when a fault lies outside the design.
[[nodiscard]] crossbar inject_faults(const crossbar& design,
                                     const std::vector<fault>& faults);

struct yield_options {
  int trials = 200;            // random fault patterns
  double fault_rate = 0.01;    // per-junction fault probability
  double stuck_on_share = 0.5; // fraction of faults that are stuck-on
  int vectors = 64;            // assignments checked per pattern
  std::uint64_t seed = 7;
  /// Trials fan out across workers; each trial draws from its own rng
  /// substream, so the report is bit-identical for every thread count.
  parallel_options parallel;
};

struct yield_report {
  int trials = 0;
  int functional = 0;       // fault patterns with no observed mismatch
  double yield = 1.0;       // functional / trials
  double average_faults = 0.0;
};

/// Monte-Carlo functional yield of `design` over `variable_count` inputs:
/// a trial passes when the faulty design matches the fault-free one on
/// every sampled assignment.
[[nodiscard]] yield_report estimate_yield(const crossbar& design,
                                          int variable_count,
                                          const yield_options& options = {});

/// All single-fault locations whose failure is observable on some sampled
/// assignment (the design's critical junctions).
[[nodiscard]] std::vector<fault> critical_single_faults(
    const crossbar& design, int variable_count, int vectors = 64,
    std::uint64_t seed = 7);

}  // namespace compact::xbar
