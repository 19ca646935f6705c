// Reliability study: what the paper's validity guarantee looks like on
// imperfect hardware. Synthesizes one design, then reports
//   * Monte-Carlo functional yield under stuck-at device faults,
//   * the critical-junction count (single faults that flip some output),
//   * analog sensing margins, and the IR drop with resistive nanowires.
//
//   $ ./reliability_study
#include <iostream>

#include "analog/margins.hpp"
#include "analog/wire_aware.hpp"
#include "core/compact.hpp"
#include "frontend/benchgen.hpp"
#include "util/table.hpp"
#include "xbar/faults.hpp"

int main() {
  using namespace compact;

  const frontend::network net = frontend::make_priority_encoder(8);
  core::synthesis_options options;
  options.labeler = "oct";
  const core::synthesis_result r = core::synthesize(net, options);
  std::cout << "reliability study of " << net.name() << " ("
            << r.stats.rows << "x" << r.stats.columns << " crossbar, "
            << r.stats.power_proxy << " programmed devices)\n\n";

  // --- stuck-at fault yield ------------------------------------------------
  table yield_table({"fault_rate", "avg_faults", "functional_yield_%"});
  for (const double rate : {0.001, 0.005, 0.02, 0.05}) {
    xbar::yield_options yopt;
    yopt.fault_rate = rate;
    yopt.trials = 150;
    const xbar::yield_report report =
        xbar::estimate_yield(r.design, net.input_count(), yopt);
    yield_table.add_row({cell(rate, 3), cell(report.average_faults, 2),
                         cell(100.0 * report.yield, 1)});
  }
  yield_table.print(std::cout);

  const std::vector<xbar::fault> critical =
      xbar::critical_single_faults(r.design, net.input_count());
  std::cout << "\ncritical single-fault sites: " << critical.size() << " of "
            << 2 * r.stats.area << " possible stuck-at faults\n\n";

  // --- analog margins and IR drop -------------------------------------------
  const analog::margin_report margins =
      analog::measure_margins(r.design, net.input_count());
  table analog_table({"metric", "value"});
  analog_table.add_row(
      {"weakest logic-1 (V)", cell(margins.min_high_voltage, 4)});
  analog_table.add_row(
      {"strongest logic-0 (V)", cell(margins.max_low_voltage, 4)});
  analog_table.add_row({"sensing margin (V)", cell(margins.margin, 4)});
  for (const double r_wire : {0.1, 1.0, 5.0}) {
    analog::wire_model wires;
    wires.r_wire = r_wire;
    const double drop =
        analog::worst_ir_drop(r.design, net.input_count(), wires, 16);
    analog_table.add_row(
        {"worst IR drop @ r_wire=" + cell(r_wire, 1) + " ohm (V)",
         cell(drop, 4)});
  }
  analog_table.print(std::cout);

  std::cout << "\nsneak-path designs tolerate stuck-off faults only where a\n"
               "redundant conducting path exists; margins shrink as wire\n"
               "resistance approaches R_on (why the paper minimizes the max\n"
               "dimension D).\n";
  return 0;
}
