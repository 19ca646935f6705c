// Figure 10: MIP convergence on the i2c-equivalent at gamma = 0.5 — best
// integer solution, best bound and relative gap versus elapsed time.
// Expected shape: the incumbent decreases monotonically, the bound
// increases, and the gap closes (or stabilizes if the limit is hit).
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "frontend/to_bdd.hpp"

int main(int argc, char** argv) {
  using namespace compact;
  const bench::bench_args args = bench::parse_bench_args(argc, argv);
  bench::json_report json;

  const frontend::network net = frontend::make_i2c_like(12);
  std::cout << "== Fig 10: MIP solver convergence on " << net.name()
            << " (gamma=0.5) ==\n\n";

  const core::synthesis_result r =
      core::synthesize(net, bench::mip_options(0.5, 20.0));

  table t({"time_s", "best_integer", "best_bound", "relative_gap_%"});
  for (const milp::mip_trace_entry& e : r.stats.trace) {
    t.add_row({cell(e.seconds, 3),
               std::isfinite(e.best_integer) ? cell(e.best_integer, 1) : "-",
               cell(e.best_bound, 1), cell(100.0 * e.relative_gap, 2)});
    json.add_record("trace", bench::json_report::record{}
                                 .field("seconds", e.seconds)
                                 .field("best_integer", e.best_integer)
                                 .field("best_bound", e.best_bound)
                                 .field("relative_gap", e.relative_gap));
  }
  t.print(std::cout);
  std::cout << "\nfinal: optimal=" << (r.stats.optimal ? "yes" : "no")
            << " gap=" << cell(100.0 * r.stats.relative_gap, 2) << "%\n\n";

  bool incumbent_monotone = true;
  bool bound_monotone = true;
  const auto& trace = r.stats.trace;
  for (std::size_t i = 1; i < trace.size(); ++i) {
    if (trace[i].best_integer > trace[i - 1].best_integer + 1e-9)
      incumbent_monotone = false;
    if (trace[i].best_bound < trace[i - 1].best_bound - 1e-6)
      bound_monotone = false;
  }
  bench::shape_check(!trace.empty(), "the solver emits a convergence trace");
  bench::shape_check(incumbent_monotone,
                     "the best integer solution decreases monotonically");
  bench::shape_check(bound_monotone || trace.size() < 2,
                     "the best bound increases monotonically");
  bench::shape_check(trace.empty() || trace.back().relative_gap <=
                                          trace.front().relative_gap + 1e-9,
                     "the relative gap closes over time");
  if (args.json_path) {
    json.scalar("experiment", std::string("fig10"));
    json.scalar("circuit", net.name());
    json.scalar("gamma", 0.5);
    json.scalar("optimal", r.stats.optimal ? 1.0 : 0.0);
    json.scalar("final_gap", r.stats.relative_gap);
    json.write_file(*args.json_path);
  }
  return 0;
}
