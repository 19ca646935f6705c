// Partitioned multi-array mapping: cost of splitting a design that
// overflows one crossbar across several budgeted arrays (core/partition).
// For every circuit of the partition suite and every per-array budget the
// harness reports arrays used, cut size, bridge count, total semiperimeter
// and latency, next to the unbounded single-array reference. Expected
// shape: every budgeted run respects the budgets, overflowing circuits
// genuinely need more than one array, and the semiperimeter overhead of
// partitioning grows as the budget shrinks (more fragments -> more ports).
#include <iostream>

#include "bench_common.hpp"
#include "core/partition.hpp"

int main(int argc, char** argv) {
  using namespace compact;
  const bench::bench_args args = bench::parse_bench_args(argc, argv);
  bench::json_report json;

  const std::vector<int> budgets = {32, 64};

  std::cout << "== Partitioned mapping: arrays / cut / semiperimeter vs "
               "per-array budget ==\n\n";
  table t({"benchmark", "budget", "arrays", "cut", "bridges", "total_S",
           "largest", "delay", "time_s"});

  bool budgets_respected = true;
  bool overflow_needs_multi = true;
  bool overhead_monotone = true;
  for (const frontend::benchmark_spec& spec :
       frontend::partition_benchmark_suite()) {
    core::synthesis_options unbounded = bench::mip_options();
    unbounded.parallel = args.parallel;
    const core::synthesis_result reference =
        core::synthesize(spec.net, unbounded);
    t.add_row({spec.name, "-", "1", "0", "0",
               cell(reference.stats.semiperimeter),
               cell(reference.stats.rows) + "x" +
                   cell(reference.stats.columns),
               cell(reference.stats.delay_steps),
               cell(reference.stats.synthesis_seconds, 2)});
    json.add_record(
        "rows",
        bench::json_report::record{}
            .field("benchmark", spec.name)
            .field("budget", 0.0)
            .field("arrays", 1.0)
            .field("cut_edges", 0.0)
            .field("bridges", 0.0)
            .field("total_semiperimeter",
                   static_cast<double>(reference.stats.semiperimeter))
            .field("delay_steps",
                   static_cast<double>(reference.stats.delay_steps))
            .field("time_seconds", reference.stats.synthesis_seconds));

    const bool overflows = reference.stats.rows > 64 ||
                           reference.stats.columns > 64;
    int previous_arrays = 1;
    // Largest budget first so the arrays-vs-budget monotonicity check reads
    // in sweep order.
    for (auto it = budgets.rbegin(); it != budgets.rend(); ++it) {
      const int budget = *it;
      core::synthesis_options options = bench::mip_options();
      options.parallel = args.parallel;
      options.max_rows = budget;
      options.max_columns = budget;
      options.partition = true;
      const core::synthesis_result r = core::synthesize(spec.net, options);
      const core::synthesis_stats& s = r.stats;
      t.add_row({spec.name, cell(budget), cell(s.arrays), cell(s.cut_edges),
                 cell(s.bridges), cell(s.semiperimeter),
                 cell(s.rows) + "x" + cell(s.columns), cell(s.delay_steps),
                 cell(s.synthesis_seconds, 2)});
      json.add_record(
          "rows",
          bench::json_report::record{}
              .field("benchmark", spec.name)
              .field("budget", static_cast<double>(budget))
              .field("arrays", static_cast<double>(s.arrays))
              .field("cut_edges", static_cast<double>(s.cut_edges))
              .field("bridges", static_cast<double>(s.bridges))
              .field("total_semiperimeter",
                     static_cast<double>(s.semiperimeter))
              .field("delay_steps", static_cast<double>(s.delay_steps))
              .field("time_seconds", s.synthesis_seconds));
      if (s.rows > budget || s.columns > budget) budgets_respected = false;
      if (budget == 64 && overflows && s.arrays < 2)
        overflow_needs_multi = false;
      if (s.arrays < previous_arrays) overhead_monotone = false;
      previous_arrays = s.arrays;
    }
  }
  t.print(std::cout);
  std::cout << "\n";
  bench::shape_check(budgets_respected,
                     "every fragment of every budgeted run fits the "
                     "per-array budget in both dimensions");
  bench::shape_check(overflow_needs_multi,
                     "circuits that overflow a 64x64 array split across "
                     "two or more arrays under that budget");
  bench::shape_check(overhead_monotone,
                     "halving the budget never reduces the number of "
                     "arrays (smaller arrays -> more fragments)");
  if (args.json_path) {
    json.scalar("experiment", std::string("partition"));
    json.write_file(*args.json_path);
  }
  return 0;
}
