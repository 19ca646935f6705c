// Table II: influence of gamma — rows, columns, max dimension D,
// semiperimeter S and synthesis time for gamma in {0, 0.5, 1}.
//
// Expected shape (Section VIII-A): gamma=0 yields (near-)square designs at
// a slightly longer semiperimeter; gamma=1 minimizes S but may be
// unbalanced; gamma=0.5 gets (near-)minimal S with smaller D than gamma=1.
#include <cstdlib>
#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace compact;
  const bench::bench_args args = bench::parse_bench_args(argc, argv);
  bench::json_report json;

  std::cout << "== Table II: COMPACT for gamma in {0, 0.5, 1} ==\n\n";
  table t({"benchmark", "gamma", "rows", "cols", "D", "S", "opt", "time_s"});

  std::vector<double> d_half, d_one, s_half, s_one, s_zero, d_zero;
  int square_at_zero = 0, converged_at_zero = 0;

  for (const frontend::benchmark_spec& spec : frontend::benchmark_suite()) {
    // Only circuits small enough for the MIP to make progress within the
    // budget (the paper likewise lists only instances solved optimally).
    core::synthesis_result probe =
        core::synthesize(spec.net, bench::oct_options());
    if (probe.stats.graph_nodes > 160) continue;

    for (const double gamma : {0.0, 0.5, 1.0}) {
      const core::synthesis_result r = core::synthesize(
          spec.net, bench::mip_options(gamma, bench::default_time_limit));
      t.add_row({spec.name, cell(gamma, 1), cell(r.stats.rows),
                 cell(r.stats.columns), cell(r.stats.max_dimension),
                 cell(r.stats.semiperimeter), r.stats.optimal ? "y" : "n",
                 cell(r.stats.synthesis_seconds, 2)});
      json.add_record("rows",
                      bench::json_report::record{}
                          .field("benchmark", spec.name)
                          .field("gamma", gamma)
                          .field("rows", r.stats.rows)
                          .field("cols", r.stats.columns)
                          .field("max_dimension", r.stats.max_dimension)
                          .field("semiperimeter", r.stats.semiperimeter)
                          .field("optimal", r.stats.optimal ? 1.0 : 0.0)
                          .field("time_seconds", r.stats.synthesis_seconds));
      if (gamma == 0.0) {
        d_zero.push_back(r.stats.max_dimension);
        s_zero.push_back(r.stats.semiperimeter);
        // Squareness is only meaningful where the solver converged (the
        // paper's Table II likewise lists only optimally solved circuits);
        // a timed-out run just returns the gamma-independent warm start.
        if (r.stats.optimal) {
          ++converged_at_zero;
          if (std::abs(r.stats.rows - r.stats.columns) <= 1)
            ++square_at_zero;
        }
      } else if (gamma == 0.5) {
        d_half.push_back(r.stats.max_dimension);
        s_half.push_back(r.stats.semiperimeter);
      } else {
        d_one.push_back(r.stats.max_dimension);
        s_one.push_back(r.stats.semiperimeter);
      }
    }
  }
  t.print(std::cout);
  std::cout << "\nnormalized averages (vs gamma=0.5):\n";
  std::cout << "  D(gamma=0)/D(0.5) = "
            << cell(bench::normalized_average(d_zero, d_half), 3)
            << "   S(gamma=0)/S(0.5) = "
            << cell(bench::normalized_average(s_zero, s_half), 3) << "\n";
  std::cout << "  D(gamma=1)/D(0.5) = "
            << cell(bench::normalized_average(d_one, d_half), 3)
            << "   S(gamma=1)/S(0.5) = "
            << cell(bench::normalized_average(s_one, s_half), 3) << "\n\n";

  bench::shape_check(
      bench::normalized_average(s_zero, s_half) >= 0.999,
      "gamma=0 never shortens the semiperimeter versus gamma=0.5 (paper: "
      "+3.6%)");
  bench::shape_check(
      bench::normalized_average(d_one, d_half) >= 0.999,
      "gamma=1 never improves the max dimension versus gamma=0.5 (paper: "
      "+2.1%)");
  bench::shape_check(converged_at_zero > 0 &&
                         square_at_zero * 2 >= converged_at_zero,
                     "gamma=0 produces (near-)square designs on most "
                     "circuits it solves optimally (paper: all but dec)");
  if (args.json_path) {
    json.scalar("experiment", std::string("table2"));
    json.scalar("d_zero_over_half", bench::normalized_average(d_zero, d_half));
    json.scalar("s_zero_over_half", bench::normalized_average(s_zero, s_half));
    json.scalar("d_one_over_half", bench::normalized_average(d_one, d_half));
    json.scalar("s_one_over_half", bench::normalized_average(s_one, s_half));
    json.write_file(*args.json_path);
  }
  return 0;
}
