// Table IV: COMPACT (gamma = 0.5) versus the prior flow-based mapping [16]
// (staircase; every BDD node takes a wordline AND a bitline).
//
// Expected shape (Section VIII-D): staircase S ~= 1.9-2.0 n while COMPACT
// S ~= 1.1 n; large reductions in rows, columns, D, S and area (paper: 56%,
// 77%, 85%, 55%, 89%), at the cost of much longer synthesis time (the
// labeling is NP-hard while the staircase is linear).
#include <iostream>

#include "bench_common.hpp"
#include "util/metrics.hpp"

int main(int argc, char** argv) {
  using namespace compact;
  const bench::bench_args args = bench::parse_bench_args(argc, argv);
  const parallel_options& parallel = args.parallel;
  bench::json_report json;

  // Solver-internal counters (B&B nodes, kernelization effect) ride along in
  // the --json report so perf tracking can gate on work done, not just wall
  // clock. Metrics only observe; designs are identical with them on or off.
  set_metrics_enabled(true);
  global_metrics().reset();

  std::cout << "== Table IV: COMPACT (gamma=0.5) vs staircase baseline [16] "
               "==\n\n";
  table t({"benchmark", "method", "nodes", "rows", "cols", "D", "S", "area",
           "S/n", "time_s"});

  std::vector<double> ours_s, base_s, ours_d, base_d, ours_area, base_area,
      ours_rows, base_rows, ours_time, base_time;

  // Circuits synthesize concurrently under --threads; rows stay in suite
  // order regardless of thread count.
  const std::vector<frontend::benchmark_spec> suite =
      frontend::benchmark_suite();
  const std::vector<bench::suite_run> runs = bench::run_suite_vs_baseline(
      suite, bench::mip_options(0.5, bench::default_time_limit), parallel);

  for (const bench::suite_run& run : runs) {
    const frontend::benchmark_spec& spec = *run.spec;
    const core::synthesis_result& ours = run.compact_result;
    const core::synthesis_result& base = run.baseline_result;

    auto add = [&](const char* method, const core::synthesis_result& r) {
      const double s_over_n =
          r.stats.graph_nodes == 0
              ? 0.0
              : static_cast<double>(r.stats.semiperimeter) /
                    static_cast<double>(r.stats.graph_nodes);
      t.add_row({spec.name, method, cell(r.stats.graph_nodes),
                 cell(r.stats.rows), cell(r.stats.columns),
                 cell(r.stats.max_dimension), cell(r.stats.semiperimeter),
                 cell(r.stats.area), cell(s_over_n, 2),
                 cell(r.stats.synthesis_seconds, 2)});
      json.add_record(
          "rows",
          bench::json_report::record{}
              .field("benchmark", spec.name)
              .field("method", method)
              .field("nodes", static_cast<double>(r.stats.graph_nodes))
              .field("rows", r.stats.rows)
              .field("cols", r.stats.columns)
              .field("max_dimension", r.stats.max_dimension)
              .field("semiperimeter", r.stats.semiperimeter)
              .field("area", static_cast<double>(r.stats.area))
              .field("s_over_n", s_over_n)
              .field("time_seconds", r.stats.synthesis_seconds));
    };
    add("staircase", base);
    add("COMPACT", ours);

    ours_s.push_back(ours.stats.semiperimeter);
    base_s.push_back(base.stats.semiperimeter);
    ours_d.push_back(ours.stats.max_dimension);
    base_d.push_back(base.stats.max_dimension);
    ours_area.push_back(static_cast<double>(ours.stats.area));
    base_area.push_back(static_cast<double>(base.stats.area));
    ours_rows.push_back(ours.stats.rows);
    base_rows.push_back(base.stats.rows);
    ours_time.push_back(ours.stats.synthesis_seconds);
    base_time.push_back(std::max(base.stats.synthesis_seconds, 1e-6));
  }
  t.print(std::cout);

  std::cout << "\naverage reductions vs staircase (paper in parens):\n"
            << "  rows  " << cell(100.0 * (1.0 - bench::normalized_average(ours_rows, base_rows)), 1)
            << "% (56%)\n"
            << "  D     " << cell(100.0 * (1.0 - bench::normalized_average(ours_d, base_d)), 1)
            << "% (85%)\n"
            << "  S     " << cell(100.0 * (1.0 - bench::normalized_average(ours_s, base_s)), 1)
            << "% (55%)\n"
            << "  area  " << cell(100.0 * (1.0 - bench::normalized_average(ours_area, base_area)), 1)
            << "% (89%)\n"
            << "  synthesis-time blowup "
            << cell(bench::normalized_average(ours_time, base_time), 0)
            << "x (paper: ~2650x)\n\n";

  bench::shape_check(bench::normalized_average(ours_s, base_s) < 0.75,
                     "COMPACT cuts the semiperimeter substantially "
                     "(paper: -55%)");
  bench::shape_check(bench::normalized_average(ours_area, base_area) < 0.5,
                     "COMPACT cuts the area substantially (paper: -89%)");
  bench::shape_check(bench::normalized_average(ours_time, base_time) > 10.0,
                     "COMPACT pays a large synthesis-time premium "
                     "(NP-hard labeling; paper: ~2650x)");

  if (args.json_path) {
    json.scalar("experiment", std::string("table4"));
    json.scalar("gamma", 0.5);
    json.scalar("time_limit_seconds", bench::default_time_limit);
    json.scalar("rows_reduction_percent",
                100.0 * (1.0 - bench::normalized_average(ours_rows, base_rows)));
    json.scalar("d_reduction_percent",
                100.0 * (1.0 - bench::normalized_average(ours_d, base_d)));
    json.scalar("s_reduction_percent",
                100.0 * (1.0 - bench::normalized_average(ours_s, base_s)));
    json.scalar("area_reduction_percent",
                100.0 * (1.0 - bench::normalized_average(ours_area, base_area)));
    json.scalar("time_blowup",
                bench::normalized_average(ours_time, base_time));
    metrics_registry& metrics = global_metrics();
    for (const char* name :
         {"milp.bnb.nodes_explored", "milp.bnb.lp_iterations",
          "milp.bnb.solves", "oct_reduce.runs", "oct_reduce.original_nodes",
          "oct_reduce.kernel_nodes"})
      json.scalar(name, static_cast<double>(metrics.counter(name).value()));
    json.write_file(*args.json_path);
  }
  return 0;
}
