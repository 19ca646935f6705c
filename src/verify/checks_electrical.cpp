// Electrical-integrity checks (ELCxxx): static resistive bounds over the
// conduction graph (verify/electrical). Opt-in through
// artifacts::electrical — the bounds are meaningful lint output, not
// structural invariants, so plain lint runs stay quiet.
//
//   ELC001  static-sensing-margin   per-output OFF/ON margin verdict
//   ELC002  electrical-bounds       per-design bound summary (companion)
#include <cstdio>
#include <string>

#include "verify/checks.hpp"
#include "verify/electrical.hpp"

namespace compact::verify {
namespace {

std::string fmt(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.4g", value);
  return buffer;
}

std::string where(const output_margin& m, bool partitioned) {
  std::string text = "output '" + m.name + "' (row " + std::to_string(m.row);
  if (partitioned) text += " of array " + std::to_string(m.array);
  return text + ")";
}

// ELC001 (+ ELC002 companion) — run the static electrical engine
// once and report every output whose bounds do not separate with slack.
void check_static_margin(const artifacts& a, report& out) {
  const electrical_options& options = *a.electrical;
  electrical_report er = a.partitioned != nullptr
                             ? analyze_electrical(*a.partitioned, options)
                             : analyze_electrical(*a.design, options);
  const bool partitioned = a.partitioned != nullptr;
  const double sense_level = options.model.threshold * options.model.v_in;

  int sensed = 0;
  for (const output_margin& m : er.outputs) {
    if (m.min_on_devices < 0) continue;  // dead output; XBR/EQV own it
    ++sensed;
    if (m.safe) continue;
    diagnostic d;
    d.check_id = "ELC001";
    // A ratio below 1.0 means the leakage bound conducts at least as well
    // as the worst ON path: no sensing threshold can work.
    d.level = m.margin_ratio < 1.0 ? severity::error : severity::warning;
    const bool ratio_ok = m.margin_ratio >= options.margin_threshold;
    d.message =
        where(m, partitioned) + " has no statically provable sensing margin: "
        "worst ON path <= " + std::to_string(m.worst_on_devices) +
        " devices (" + fmt(m.worst_on_resistance) + " ohm), OFF leakage >= " +
        fmt(m.best_off_resistance) + " ohm over <= " +
        std::to_string(m.parallel_paths) + " parallel paths, ratio " +
        fmt(m.margin_ratio) + (ratio_ok ? " >= " : " < ") + "threshold " +
        fmt(options.margin_threshold) + "; bounded voltages [" +
        fmt(m.max_low_voltage) + ", " + fmt(m.min_high_voltage) +
        "] V " + (ratio_ok ? "fail to straddle" : "against") + " the " +
        fmt(sense_level) + " V sense level";
    d.fix =
        "shrink the array (tighter row/column budgets or partitioning) or "
        "raise the device R_off/R_on ratio";
    d.anchors = {output_entity(m.name), row_entity(m.row)};
    out.add(std::move(d));
  }

  if (sensed > 0) {
    diagnostic d;
    d.check_id = "ELC002";
    d.level = severity::note;
    d.message = "static electrical bounds over " + std::to_string(sensed) +
                " sensed output(s): minimum OFF/ON margin ratio " +
                fmt(er.min_margin_ratio) + " (threshold " +
                fmt(options.margin_threshold) + "), verdict " +
                (er.safe ? "safe" : "not provably safe");
    out.add(std::move(d));
  }

  if (a.cache != nullptr) a.cache->electrical = std::move(er);
}

}  // namespace

std::vector<check_descriptor> electrical_checks() {
  std::vector<check_descriptor> checks;
  check_descriptor c;

  c.id = "ELC001";
  c.name = "static-sensing-margin";
  c.description =
      "Every sensed output's worst-case ON-path resistance must clear its "
      "best-case OFF-leakage bound by the configured margin ratio";
  c.default_severity = severity::warning;
  c.needs_electrical = true;
  c.run = check_static_margin;
  checks.push_back(c);

  c = {};
  c.id = "ELC002";
  c.name = "electrical-bounds";
  c.description =
      "Per-design summary of the static ON/OFF resistance bounds and the "
      "margin verdict";
  c.default_severity = severity::note;
  c.needs_electrical = true;
  c.run = nullptr;  // companion: ELC001's engine pass emits it
  checks.push_back(c);

  return checks;
}

}  // namespace compact::verify
