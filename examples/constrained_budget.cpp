// Constrained synthesis (Section III): ask COMPACT for a design that fits a
// fixed crossbar budget, shrinking the row budget until the request becomes
// provably infeasible.
//
//   $ ./constrained_budget
#include <iostream>

#include "core/compact.hpp"
#include "frontend/benchgen.hpp"
#include "util/table.hpp"

int main() {
  using namespace compact;

  const frontend::network net = frontend::make_parity(8, 2);
  std::cout << "shrinking the row budget for " << net.name() << "\n\n";

  core::synthesis_options base;
  base.labeler = "mip";
  base.gamma = 0.5;
  base.time_limit_seconds = 10.0;

  const core::synthesis_result natural = core::synthesize(net, base);
  std::cout << "unconstrained design: " << natural.stats.rows << " x "
            << natural.stats.columns << " (S=" << natural.stats.semiperimeter
            << ")\n\n";

  // Three regimes: comfortably feasible, tight (may be undecidable within
  // the budget — the honest NP-hard outcome), and provably infeasible
  // (fewer wordlines than outputs + input need).
  table t({"max_rows", "result", "rows", "cols", "S"});
  for (const int budget : {natural.stats.rows + 1, natural.stats.rows,
                           natural.stats.rows - 1, 4, 3, 2}) {
    core::synthesis_options options = base;
    options.max_rows = budget;
    try {
      const core::synthesis_result r = core::synthesize(net, options);
      t.add_row({cell(budget), "ok", cell(r.stats.rows),
                 cell(r.stats.columns), cell(r.stats.semiperimeter)});
    } catch (const infeasible_error&) {
      t.add_row({cell(budget), "proven infeasible", "-", "-", "-"});
    } catch (const error&) {
      t.add_row({cell(budget), "undecided (limit)", "-", "-", "-"});
    }
  }
  t.print(std::cout);
  std::cout << "\n'proven infeasible' rows demonstrate Section III's promise:"
               "\nCOMPACT either returns a valid design or a proof that the"
               "\nrequested constraints cannot be met.\n";
  return 0;
}
