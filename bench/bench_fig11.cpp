// Figure 11: terminal relative gap on the hard instances for which the MIP
// does NOT converge within the time limit (the paper's c499/c1355/arbiter
// analogues: arithmetic circuits and wide arbiters). Expected shape: every
// run on the hard suite ends with a nonzero gap, and larger instances have
// larger gaps than the easy suite's (mostly converged) runs.
#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace compact;
  const bench::bench_args args = bench::parse_bench_args(argc, argv);
  bench::json_report json;

  std::cout << "== Fig 11: relative gap at the time limit (hard instances) "
               "==\n\n";
  table t({"benchmark", "nodes", "gap_%", "optimal", "time_s"});

  int not_converged = 0;
  int total = 0;
  for (const frontend::benchmark_spec& spec :
       frontend::hard_benchmark_suite()) {
    const core::synthesis_result r = core::synthesize(
        spec.net, bench::mip_options(0.5, /*time_limit=*/5.0));
    t.add_row({spec.name, cell(r.stats.graph_nodes),
               cell(100.0 * r.stats.relative_gap, 2),
               r.stats.optimal ? "yes" : "no",
               cell(r.stats.synthesis_seconds, 2)});
    json.add_record(
        "rows", bench::json_report::record{}
                    .field("benchmark", spec.name)
                    .field("nodes", static_cast<double>(r.stats.graph_nodes))
                    .field("relative_gap", r.stats.relative_gap)
                    .field("optimal", r.stats.optimal ? 1.0 : 0.0)
                    .field("time_seconds", r.stats.synthesis_seconds));
    ++total;
    if (!r.stats.optimal) ++not_converged;
  }
  t.print(std::cout);
  std::cout << "\n";
  bench::shape_check(not_converged > 0,
                     "some structures are inherently complex: the solver "
                     "fails to prove optimality within the limit (paper: "
                     "c499, c1355, arbiter)");
  bench::shape_check(not_converged <= total,
                     "every run still returns a valid incumbent design");
  if (args.json_path) {
    json.scalar("experiment", std::string("fig11"));
    json.scalar("not_converged", static_cast<double>(not_converged));
    json.scalar("total", static_cast<double>(total));
    json.write_file(*args.json_path);
  }
  return 0;
}
