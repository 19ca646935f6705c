// Analog signoff: verify a synthesized crossbar electrically (Section VIII
// validates with SPICE; this repo's MNA solver plays that role).
//
// Synthesizes a 4:1 mux crossbar, then sweeps all input assignments through
// the resistive-network simulator and reports the sensed voltages versus
// the digital reference.
//
//   $ ./analog_signoff
#include <iostream>

#include "analog/mna.hpp"
#include "core/compact.hpp"
#include "frontend/benchgen.hpp"
#include "frontend/to_bdd.hpp"
#include "util/table.hpp"
#include "xbar/evaluate.hpp"

int main() {
  using namespace compact;

  const frontend::network net = frontend::make_mux_tree(2);
  bdd::manager m(net.input_count());
  const frontend::sbdd built = frontend::build_sbdd(net, m);

  core::synthesis_options options;
  options.labeler = "oct";
  const core::synthesis_result r =
      core::synthesize(m, built.roots, built.names, options);

  const analog::device_model model;  // R_on 100, R_off 1e8, R_sense 10k
  std::cout << "analog signoff of " << net.name() << " ("
            << r.stats.rows << "x" << r.stats.columns << " crossbar, R_on="
            << model.r_on << " ohm, R_off=" << model.r_off << " ohm)\n\n";

  int mismatches = 0;
  double min_high = 1.0, max_low = 0.0;
  const int n = net.input_count();
  for (std::uint64_t v = 0; v < (1ULL << n); ++v) {
    std::vector<bool> a(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) a[static_cast<std::size_t>(i)] = (v >> i) & 1;
    const analog::analog_result sim = analog::simulate(r.design, a, model);
    for (std::size_t o = 0; o < r.design.outputs().size(); ++o) {
      const bool digital =
          xbar::evaluate_output(r.design, a, r.design.outputs()[o].name);
      if (sim.output_logic[o] != digital) ++mismatches;
      if (digital)
        min_high = std::min(min_high, sim.output_voltages[o]);
      else
        max_low = std::max(max_low, sim.output_voltages[o]);
    }
  }

  table t({"metric", "value"});
  t.add_row({"assignments checked", cell(1LL << n)});
  t.add_row({"analog/digital mismatches", cell(mismatches)});
  t.add_row({"lowest logic-1 voltage (V)", cell(min_high, 4)});
  t.add_row({"highest logic-0 voltage (V)", cell(max_low, 4)});
  t.add_row({"sense threshold (V)", cell(model.threshold * model.v_in, 4)});
  t.print(std::cout);
  std::cout << (mismatches == 0 ? "\nsignoff PASSED\n" : "\nsignoff FAILED\n");
  return mismatches == 0 ? 0 : 1;
}
