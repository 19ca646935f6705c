// Multi-output synthesis: shared BDD versus separate ROBDDs (Section VII).
//
// Maps a 6-bit ripple-carry adder both ways and reports the hardware saved
// by sharing (Table III's experiment on one circuit).
//
//   $ ./multi_output_adder
#include <iostream>

#include "core/compact.hpp"
#include "frontend/benchgen.hpp"
#include "util/table.hpp"

int main() {
  using namespace compact;

  const frontend::network net = frontend::make_ripple_adder(6);
  core::synthesis_options options;
  options.labeler = "oct";

  const core::synthesis_result sbdd = core::synthesize(net, options);
  options.separate_robdds = true;
  const core::synthesis_result robdds = core::synthesize(net, options);

  table t({"mode", "nodes", "rows", "cols", "D", "S", "area"});
  t.add_row({"separate ROBDDs", cell(robdds.stats.graph_nodes),
             cell(robdds.stats.rows), cell(robdds.stats.columns),
             cell(robdds.stats.max_dimension),
             cell(robdds.stats.semiperimeter), cell(robdds.stats.area)});
  t.add_row({"single SBDD", cell(sbdd.stats.graph_nodes),
             cell(sbdd.stats.rows), cell(sbdd.stats.columns),
             cell(sbdd.stats.max_dimension), cell(sbdd.stats.semiperimeter),
             cell(sbdd.stats.area)});
  t.print(std::cout);

  const double saved =
      100.0 * (1.0 - static_cast<double>(sbdd.stats.semiperimeter) /
                         static_cast<double>(robdds.stats.semiperimeter));
  std::cout << "\nsharing the BDD saves " << cell(saved, 1)
            << "% of the semiperimeter on " << net.name() << "\n";
  return 0;
}
