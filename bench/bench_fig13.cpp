// Figure 13: COMPACT versus CONTRA (MAGIC-based in-memory computing) on the
// EPFL-control-like circuits, with CONTRA's published configuration (k=4,
// spacing=6, 128x128 crossbar). Power: CONTRA counts write operations,
// COMPACT counts programmed literal devices. Delay: CONTRA counts
// sequential MAGIC steps, COMPACT counts rows + 1. Expected shape: COMPACT
// wins both, delay by severalfold (paper: power -55%, delay -87%, i.e.
// CONTRA 8.65x slower).
#include <iostream>

#include "bench_common.hpp"
#include "magic/contra.hpp"

int main(int argc, char** argv) {
  using namespace compact;
  const bench::bench_args args = bench::parse_bench_args(argc, argv);
  bench::json_report json;

  std::cout << "== Fig 13: COMPACT vs CONTRA (MAGIC, k=4, spacing=6, "
               "128x128) on EPFL-control-like circuits ==\n\n";
  table t({"benchmark", "powerCONTRA", "powerCOMPACT", "norm_power",
           "delayCONTRA", "delayCOMPACT", "norm_delay"});

  std::vector<double> ours_power, base_power, ours_delay, base_delay;
  for (const frontend::benchmark_spec& spec : frontend::benchmark_suite()) {
    // The paper restricts this comparison to the EPFL control benchmarks
    // ("BDDs do not scale well" on the ISCAS85 arithmetic circuits).
    if (spec.family != "epfl-control-like") continue;

    const core::synthesis_result ours = core::synthesize(
        spec.net, bench::mip_options(0.5, bench::default_time_limit));
    const magic::contra_result contra = magic::contra_synthesize(spec.net);

    ours_power.push_back(ours.stats.power_proxy);
    base_power.push_back(static_cast<double>(contra.total_ops));
    ours_delay.push_back(ours.stats.delay_steps);
    base_delay.push_back(static_cast<double>(contra.delay_steps));
    t.add_row(
        {spec.name, cell(contra.total_ops), cell(ours.stats.power_proxy),
         cell(ours.stats.power_proxy /
                  std::max(1.0, static_cast<double>(contra.total_ops)),
              3),
         cell(contra.delay_steps), cell(ours.stats.delay_steps),
         cell(ours.stats.delay_steps /
                  std::max(1.0, static_cast<double>(contra.delay_steps)),
              3)});
    json.add_record(
        "rows",
        bench::json_report::record{}
            .field("benchmark", spec.name)
            .field("contra_power", static_cast<double>(contra.total_ops))
            .field("compact_power", ours.stats.power_proxy)
            .field("contra_delay", static_cast<double>(contra.delay_steps))
            .field("compact_delay", ours.stats.delay_steps));
  }
  t.print(std::cout);

  const double power_ratio = bench::normalized_average(ours_power, base_power);
  const double delay_ratio = bench::normalized_average(ours_delay, base_delay);
  std::cout << "\nnormalized averages: power " << cell(power_ratio, 3)
            << " (paper 0.45), delay " << cell(delay_ratio, 3)
            << " (paper 0.13, i.e. CONTRA 8.65x slower)\n\n";
  bench::shape_check(power_ratio < 1.0,
                     "COMPACT needs less power than CONTRA (paper: -55%)");
  bench::shape_check(delay_ratio < 0.5,
                     "COMPACT is severalfold faster than CONTRA's "
                     "sequential MAGIC steps (paper: -87%)");
  if (args.json_path) {
    json.scalar("experiment", std::string("fig13"));
    json.scalar("normalized_power", power_ratio);
    json.scalar("normalized_delay", delay_ratio);
    json.write_file(*args.json_path);
  }
  return 0;
}
