// The semiperimeter / max-dimension trade-off (Sections III and VI-B).
//
// Sweeps the user parameter gamma for one circuit and prints every design
// found, showing how gamma = 0 pushes toward square crossbars and gamma = 1
// toward minimal total nanowire count (the Fig. 9 experiment on one
// circuit).
//
//   $ ./gamma_tradeoff
#include <iostream>

#include "core/compact.hpp"
#include "frontend/benchgen.hpp"
#include "util/table.hpp"

int main() {
  using namespace compact;

  const frontend::network net = frontend::make_comparator(4);
  std::cout << "gamma sweep on " << net.name() << " (gamma*S + (1-gamma)*D)\n\n";

  table t({"gamma", "rows", "cols", "S", "D", "optimal", "time_s"});
  for (const double gamma : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    core::synthesis_options options;
    options.labeler = "mip";
    options.gamma = gamma;
    options.time_limit_seconds = 20.0;
    const core::synthesis_result r = core::synthesize(net, options);
    t.add_row({cell(gamma, 2), cell(r.stats.rows), cell(r.stats.columns),
               cell(r.stats.semiperimeter), cell(r.stats.max_dimension),
               r.stats.optimal ? "yes" : "no",
               cell(r.stats.synthesis_seconds, 2)});
  }
  t.print(std::cout);
  std::cout << "\ngamma=0 minimizes the max dimension (square designs);\n"
               "gamma=1 minimizes the semiperimeter (fewest nanowires).\n";
  return 0;
}
