// Figure 9: non-dominated (rows, columns) crossbar designs found by
// sweeping gamma in [0, 1] for the cavlc- and int2float-equivalents.
// A design is non-dominated if no other design has both fewer rows and
// fewer columns. Expected shape: a small Pareto front trading rows for
// columns around the square point, as in the paper's listed fronts.
#include <algorithm>
#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace compact;
  const bench::bench_args args = bench::parse_bench_args(argc, argv);
  bench::json_report json;

  for (const frontend::benchmark_spec& spec : frontend::benchmark_suite()) {
    if (spec.name.find("cavlc") == std::string::npos &&
        spec.name.find("int2float") == std::string::npos)
      continue;

    std::cout << "== Fig 9: gamma sweep on " << spec.name << " ==\n\n";
    std::vector<std::pair<int, int>> designs;  // (rows, cols)
    table t({"gamma", "rows", "cols", "S", "D"});
    // One cache per circuit: the MIP warm start re-solves the same OCT
    // subproblem at every gamma, so sweep points after the first hit it.
    core::labeling_cache cache;
    for (const double gamma :
         {0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}) {
      core::synthesis_options options =
          bench::mip_options(gamma, bench::default_time_limit);
      options.cache = &cache;
      const core::synthesis_result r =
          core::synthesize(spec.net, options);
      designs.emplace_back(r.stats.rows, r.stats.columns);
      t.add_row({cell(gamma, 1), cell(r.stats.rows), cell(r.stats.columns),
                 cell(r.stats.semiperimeter), cell(r.stats.max_dimension)});
      json.add_record("rows", bench::json_report::record{}
                                  .field("benchmark", spec.name)
                                  .field("gamma", gamma)
                                  .field("rows", r.stats.rows)
                                  .field("cols", r.stats.columns)
                                  .field("semiperimeter", r.stats.semiperimeter)
                                  .field("max_dimension", r.stats.max_dimension));
    }
    t.print(std::cout);
    const core::labeling_cache::counters cc = cache.stats();
    std::cout << "\nlabeling cache: " << cc.hits << " hits / " << cc.misses
              << " misses across the sweep\n";

    // Extract the non-dominated set.
    std::sort(designs.begin(), designs.end());
    designs.erase(std::unique(designs.begin(), designs.end()), designs.end());
    std::vector<std::pair<int, int>> front;
    for (const auto& d : designs) {
      bool dominated = false;
      for (const auto& other : designs)
        if (other != d && other.first <= d.first &&
            other.second <= d.second)
          dominated = true;
      if (!dominated) front.push_back(d);
    }
    std::cout << "\nnon-dominated designs (rows, cols):";
    for (const auto& [rows, cols] : front)
      std::cout << " (" << rows << ", " << cols << ")";
    std::cout << "\n\n";
    bench::shape_check(!front.empty() && front.size() <= designs.size(),
                       "gamma sweep exposes a Pareto front of distinct "
                       "row/column trade-offs for " + spec.name);
    for (const auto& [rows, cols] : front)
      json.add_record("pareto_front",
                      bench::json_report::record{}
                          .field("benchmark", spec.name)
                          .field("rows", static_cast<double>(rows))
                          .field("cols", static_cast<double>(cols)));
  }
  if (args.json_path) {
    json.scalar("experiment", std::string("fig9"));
    json.scalar("time_limit_seconds", bench::default_time_limit);
    json.write_file(*args.json_path);
  }
  return 0;
}
