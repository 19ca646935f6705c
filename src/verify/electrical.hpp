// Static electrical-integrity analysis (the ELCxxx check family's engine).
//
// The analyzer's other checks reason about the *conduction graph* — which
// wordlines can reach which. This module reasons about the *resistive
// network* the conduction graph abstracts: every programmed junction is a
// resistor (R_on when conducting, R_off when blocking), inter-array bridges
// add their own series resistance, and an output is sensed as a voltage
// divider against its sensing resistor. Without solving a single nodal
// system (that is analog/mna's job), it derives per-output bounds:
//
//   * an upper bound on the series resistance of the path that carries the
//     ON current in the worst assignment — devices conduct both ways, so
//     any simple conduction path is confined to the input wordline's
//     connected component (the corridor, shared by every reachable
//     output), and its device count is bounded by that component's wire
//     and device counts;
//   * a lower bound on the effective resistance of the parasitic OFF-path
//     network — when the output should read 0, every input-to-output path
//     crosses at least one blocking junction (>= R_off), and the parallel
//     such paths number exactly min(output row's entry degree, simple
//     input-to-output paths). That count is exact and needs no budget: one
//     search with the output row removed settles it whenever the input
//     reaches every entry neighbour, and a pruned path count up to the
//     entry degree settles the rest.
//
// The verdict is conservative by construction: "safe" is only reported when
// the bounds separate with slack (margin_ratio >= margin_threshold and the
// divider voltages clear the sensing threshold even under worst-case
// loading), so a statically safe design is also separable under analog/mna
// — the agreement suite in tests/electrical_test.cpp pins that direction on
// every small committed benchmark.
#pragma once

#include <string>
#include <vector>

#include "analog/mna.hpp"
#include "xbar/crossbar.hpp"
#include "xbar/partitioned.hpp"

namespace compact::verify {

struct electrical_options {
  /// Device corner used for the static bounds (same defaults as analog/mna).
  analog::device_model model;
  /// Minimum statically-provable OFF/ON resistance ratio for a "safe"
  /// verdict. Ratios below 1.0 mean the leakage bound conducts at least as
  /// well as the worst ON path — ELC001 escalates those to errors.
  double margin_threshold = 10.0;
  /// Series resistance of one inter-array bridge crossing (format-v2
  /// designs), ohms. Bridges are wires, not devices, but long inter-array
  /// routes are not free.
  double bridge_resistance = 25.0;
};

/// Per-output static margin bounds. `array` is 0 for single-array designs.
struct output_margin {
  std::string name;
  int array = 0;
  int row = -1;
  /// Fewest devices on any input-to-output conduction path (best-case ON
  /// depth); -1 when the output row is unreachable even with every
  /// programmed junction conducting (it can never read 1 — or leak).
  int min_on_devices = -1;
  /// Conservative upper bound on the device count of the ON-carrying path.
  int worst_on_devices = 0;
  /// Upper bound on inter-array bridge crossings of that path (v2 designs).
  int bridge_crossings = 0;
  /// worst_on_devices * r_on + bridge_crossings * bridge_resistance.
  double worst_on_resistance = 0.0;
  /// Parallel leakage paths into the output row: min(entry degree, simple
  /// input-to-output paths), at least 1 (exactly 1 on the input row).
  int parallel_paths = 1;
  /// r_off / parallel_paths: lower bound on the OFF-network resistance.
  double best_off_resistance = 0.0;
  /// best_off_resistance / worst_on_resistance (the static margin).
  double margin_ratio = 0.0;
  /// Static lower bound on the sensed logic-1 voltage (divider against
  /// r_sense, derated once per other sensed row the path could load).
  double min_high_voltage = 0.0;
  /// Static upper bound on the leakage voltage at a logic 0.
  double max_low_voltage = 0.0;
  bool safe = false;
};

struct electrical_report {
  std::vector<output_margin> outputs;
  /// Smallest margin_ratio over the sensed, reachable outputs (0 when none).
  double min_margin_ratio = 0.0;
  /// Every sensed output safe (vacuously true with no sensed outputs).
  bool safe = true;
};

/// Static electrical bounds for every sensed output of a single-array
/// design. Constant outputs have no resistive path and are skipped.
[[nodiscard]] electrical_report analyze_electrical(
    const xbar::crossbar& design, const electrical_options& options = {});

/// Same bounds over the stitched resistive network of a partitioned design:
/// bridges are series resistances, the corridor spans fragments.
[[nodiscard]] electrical_report analyze_electrical(
    const xbar::partitioned_design& design,
    const electrical_options& options = {});

}  // namespace compact::verify
