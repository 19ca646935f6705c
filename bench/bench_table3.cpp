// Table III: multiple merged ROBDDs vs a single SBDD for multi-output
// circuits (Section VII-A / VIII-B). Expected shape: the SBDD never has
// more nodes, and its crossbar is smaller on every size metric (paper:
// nodes -22%, rows -29%, cols -27%, D -27%, S -28% on average).
#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace compact;
  const bench::bench_args args = bench::parse_bench_args(argc, argv);
  bench::json_report json;

  std::cout << "== Table III: separate ROBDDs vs single SBDD ==\n\n";
  table t({"benchmark", "mode", "nodes", "rows", "cols", "D", "S", "time_s"});

  std::vector<double> sbdd_s, robdd_s, sbdd_nodes, robdd_nodes, sbdd_d,
      robdd_d;
  bool sbdd_never_more_nodes = true;

  core::synthesis_options separate = bench::oct_options();
  separate.separate_robdds = true;
  for (const frontend::benchmark_spec& spec : frontend::benchmark_suite()) {
    if (spec.net.outputs().size() < 2) continue;
    const core::synthesis_result sbdd =
        core::synthesize(spec.net, bench::oct_options());
    const core::synthesis_result robdd = core::synthesize(spec.net, separate);

    t.add_row({spec.name, "ROBDDs", cell(robdd.stats.graph_nodes),
               cell(robdd.stats.rows), cell(robdd.stats.columns),
               cell(robdd.stats.max_dimension),
               cell(robdd.stats.semiperimeter),
               cell(robdd.stats.synthesis_seconds, 2)});
    t.add_row({spec.name, "SBDD", cell(sbdd.stats.graph_nodes),
               cell(sbdd.stats.rows), cell(sbdd.stats.columns),
               cell(sbdd.stats.max_dimension), cell(sbdd.stats.semiperimeter),
               cell(sbdd.stats.synthesis_seconds, 2)});
    const auto record_mode = [&](const char* mode,
                                 const core::synthesis_result& r) {
      json.add_record(
          "rows", bench::json_report::record{}
                      .field("benchmark", spec.name)
                      .field("mode", mode)
                      .field("nodes", static_cast<double>(r.stats.graph_nodes))
                      .field("rows", r.stats.rows)
                      .field("cols", r.stats.columns)
                      .field("max_dimension", r.stats.max_dimension)
                      .field("semiperimeter", r.stats.semiperimeter)
                      .field("time_seconds", r.stats.synthesis_seconds));
    };
    record_mode("robdd", robdd);
    record_mode("sbdd", sbdd);

    sbdd_nodes.push_back(static_cast<double>(sbdd.stats.graph_nodes));
    robdd_nodes.push_back(static_cast<double>(robdd.stats.graph_nodes));
    sbdd_s.push_back(sbdd.stats.semiperimeter);
    robdd_s.push_back(robdd.stats.semiperimeter);
    sbdd_d.push_back(sbdd.stats.max_dimension);
    robdd_d.push_back(robdd.stats.max_dimension);
    if (sbdd.stats.graph_nodes > robdd.stats.graph_nodes)
      sbdd_never_more_nodes = false;
  }
  t.print(std::cout);

  const double node_ratio = bench::normalized_average(sbdd_nodes, robdd_nodes);
  const double s_ratio = bench::normalized_average(sbdd_s, robdd_s);
  const double d_ratio = bench::normalized_average(sbdd_d, robdd_d);
  std::cout << "\nSBDD/ROBDD normalized averages: nodes "
            << cell(node_ratio, 3) << ", S " << cell(s_ratio, 3) << ", D "
            << cell(d_ratio, 3) << "\n\n";

  bench::shape_check(sbdd_never_more_nodes,
                     "the SBDD never has more nodes than the merged ROBDDs");
  bench::shape_check(node_ratio < 1.0,
                     "SBDD reduces nodes on average (paper: -22%)");
  bench::shape_check(s_ratio < 1.0,
                     "SBDD reduces the semiperimeter on average (paper: -28%)");
  bench::shape_check(d_ratio < 1.0,
                     "SBDD reduces the max dimension on average (paper: -27%)");
  if (args.json_path) {
    json.scalar("experiment", std::string("table3"));
    json.scalar("node_ratio", node_ratio);
    json.scalar("s_ratio", s_ratio);
    json.scalar("d_ratio", d_ratio);
    json.write_file(*args.json_path);
  }
  return 0;
}
