// Figure 12: normalized power and computation delay of COMPACT versus the
// prior flow-based mapping [16]. Power is the number of literal-programmed
// memristors; delay is rows + 1 (one programming step per wordline plus one
// evaluation step, Section VIII). Expected shape: COMPACT <= baseline on
// both, with delay cut roughly in half or better (paper: power -19%,
// delay -56%).
#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace compact;
  const bench::bench_args args = bench::parse_bench_args(argc, argv);
  const parallel_options& parallel = args.parallel;
  bench::json_report json;

  std::cout << "== Fig 12: power & delay vs prior flow-based mapping [16] "
               "==\n\n";
  table t({"benchmark", "power[16]", "powerCOMPACT", "norm_power",
           "delay[16]", "delayCOMPACT", "norm_delay"});

  std::vector<double> ours_power, base_power, ours_delay, base_delay;
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

    ours_power.push_back(ours.stats.power_proxy);
    base_power.push_back(base.stats.power_proxy);
    ours_delay.push_back(ours.stats.delay_steps);
    base_delay.push_back(base.stats.delay_steps);
    t.add_row({spec.name, cell(base.stats.power_proxy),
               cell(ours.stats.power_proxy),
               cell(ours.stats.power_proxy /
                        std::max(1.0, static_cast<double>(
                                          base.stats.power_proxy)),
                    3),
               cell(base.stats.delay_steps), cell(ours.stats.delay_steps),
               cell(ours.stats.delay_steps /
                        std::max(1.0, static_cast<double>(
                                          base.stats.delay_steps)),
                    3)});
    json.add_record("rows",
                    bench::json_report::record{}
                        .field("benchmark", spec.name)
                        .field("baseline_power", base.stats.power_proxy)
                        .field("compact_power", ours.stats.power_proxy)
                        .field("baseline_delay", base.stats.delay_steps)
                        .field("compact_delay", ours.stats.delay_steps));
  }
  t.print(std::cout);

  const double power_ratio = bench::normalized_average(ours_power, base_power);
  const double delay_ratio = bench::normalized_average(ours_delay, base_delay);
  std::cout << "\nnormalized averages: power " << cell(power_ratio, 3)
            << " (paper 0.81), delay " << cell(delay_ratio, 3)
            << " (paper 0.44)\n\n";
  bench::shape_check(power_ratio <= 1.0,
                     "COMPACT's power never exceeds the baseline's "
                     "(shared SBDD edges <= summed ROBDD edges)");
  bench::shape_check(delay_ratio < 0.7,
                     "COMPACT cuts delay substantially via fewer rows "
                     "(paper: -56%)");
  if (args.json_path) {
    json.scalar("experiment", std::string("fig12"));
    json.scalar("normalized_power", power_ratio);
    json.scalar("normalized_delay", delay_ratio);
    json.write_file(*args.json_path);
  }
  return 0;
}
