// Ablations of COMPACT's design choices (not a paper artifact; DESIGN.md
// calls these out):
//   A. balanced vs arbitrary 2-coloring of G_B (the Fig. 6 mechanism),
//   B. greedy vs exact odd cycle transversal (incumbent quality),
//   C. OCT engine: odd-cycle branch-and-bound vs the Lemma-1 ILP route
//      (runtime parity),
//   D. MIP warm start on/off (incumbent availability at tight limits),
//   E. CONTRA delay under the paper's sequential model vs an optimistic
//      wave-parallel schedule (COMPACT's delay edge must survive both).
#include <iostream>

#include "bench_common.hpp"
#include "core/labelers.hpp"
#include "frontend/to_bdd.hpp"
#include "magic/contra.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace compact;

core::bdd_graph graph_of(const frontend::network& net, bdd::manager& m) {
  const frontend::sbdd built = frontend::build_sbdd(net, m);
  return core::build_bdd_graph(m, built.roots, built.names);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace compact;
  const bench::bench_args args = bench::parse_bench_args(argc, argv);
  bench::json_report json;

  // ---- A: balanced 2-coloring --------------------------------------------
  std::cout << "== Ablation A: balanced vs arbitrary 2-coloring (Fig. 6) "
               "==\n\n";
  {
    table t({"benchmark", "S", "D_balanced", "D_arbitrary"});
    bool never_worse = true;
    for (const frontend::benchmark_spec& spec : frontend::benchmark_suite()) {
      bdd::manager m(spec.net.input_count());
      const core::bdd_graph g = graph_of(spec.net, m);
      core::oct_label_options on;
      on.balance = true;
      on.time_limit_seconds = 5.0;
      core::oct_label_options off = on;
      off.balance = false;
      const auto balanced =
          core::compute_stats(core::label_minimal_semiperimeter(g, on).l);
      const auto arbitrary =
          core::compute_stats(core::label_minimal_semiperimeter(g, off).l);
      t.add_row({spec.name, cell(balanced.semiperimeter),
                 cell(balanced.max_dimension),
                 cell(arbitrary.max_dimension)});
      json.add_record("coloring",
                      bench::json_report::record{}
                          .field("benchmark", spec.name)
                          .field("semiperimeter", balanced.semiperimeter)
                          .field("d_balanced", balanced.max_dimension)
                          .field("d_arbitrary", arbitrary.max_dimension));
      if (balanced.max_dimension > arbitrary.max_dimension)
        never_worse = false;
    }
    t.print(std::cout);
    std::cout << '\n';
    bench::shape_check(never_worse,
                       "the component-flip DP never worsens the max "
                       "dimension at equal semiperimeter");
  }

  // ---- B: greedy vs exact OCT --------------------------------------------
  std::cout << "\n== Ablation B: greedy vs exact odd cycle transversal ==\n\n";
  {
    table t({"benchmark", "oct_greedy", "oct_exact", "exact_proved"});
    bool greedy_never_smaller = true;
    for (const frontend::benchmark_spec& spec : frontend::benchmark_suite()) {
      bdd::manager m(spec.net.input_count());
      const core::bdd_graph g = graph_of(spec.net, m);
      const graph::oct_result greedy =
          graph::greedy_odd_cycle_transversal(g.g);
      graph::oct_options options;
      options.time_limit_seconds = 5.0;
      const graph::oct_result exact = graph::odd_cycle_transversal(g.g, options);
      t.add_row({spec.name, cell(greedy.size), cell(exact.size),
                 exact.optimal ? "yes" : "no"});
      json.add_record("oct_quality",
                      bench::json_report::record{}
                          .field("benchmark", spec.name)
                          .field("oct_greedy", static_cast<double>(greedy.size))
                          .field("oct_exact", static_cast<double>(exact.size))
                          .field("exact_proved", exact.optimal ? 1.0 : 0.0));
      if (greedy.size < exact.size) greedy_never_smaller = false;
    }
    t.print(std::cout);
    std::cout << '\n';
    bench::shape_check(greedy_never_smaller,
                       "the exact engine never returns a larger transversal "
                       "than greedy (its first incumbent)");
  }

  // ---- C: OCT engine comparison -------------------------------------------
  std::cout << "\n== Ablation C: OCT via odd-cycle branch-and-bound vs the "
               "Lemma-1 ILP ==\n\n";
  {
    table t({"benchmark", "k_bnb", "t_bnb_s", "nodes_bnb", "k_ilp",
             "t_ilp_s"});
    bool sizes_agree = true;
    for (const frontend::benchmark_spec& spec : frontend::benchmark_suite()) {
      if (spec.net.input_count() > 12) continue;  // keep the ILP runs cheap
      bdd::manager m(spec.net.input_count());
      const core::bdd_graph g = graph_of(spec.net, m);
      if (g.g.node_count() > 130) continue;
      graph::oct_options bnb;
      bnb.engine = graph::oct_engine::bnb;
      bnb.time_limit_seconds = 5.0;
      graph::oct_options ilp;
      ilp.engine = graph::oct_engine::ilp;
      ilp.time_limit_seconds = 5.0;
      stopwatch w1;
      const graph::oct_result r1 = graph::odd_cycle_transversal(g.g, bnb);
      const double t1 = w1.seconds();
      stopwatch w2;
      const graph::oct_result r2 = graph::odd_cycle_transversal(g.g, ilp);
      const double t2 = w2.seconds();
      t.add_row({spec.name, cell(r1.size), cell(t1, 3),
                 cell(static_cast<long long>(r1.search_nodes)), cell(r2.size),
                 cell(t2, 3)});
      json.add_record("oct_engines",
                      bench::json_report::record{}
                          .field("benchmark", spec.name)
                          .field("k_bnb", static_cast<double>(r1.size))
                          .field("t_bnb_seconds", t1)
                          .field("nodes_bnb",
                                 static_cast<double>(r1.search_nodes))
                          .field("k_ilp", static_cast<double>(r2.size))
                          .field("t_ilp_seconds", t2));
      if (r1.optimal && r2.optimal && r1.size != r2.size) sizes_agree = false;
    }
    t.print(std::cout);
    std::cout << '\n';
    bench::shape_check(sizes_agree,
                       "both engines agree on the minimum transversal size "
                       "whenever both prove optimality");
  }

  // ---- D: MIP warm start --------------------------------------------------
  std::cout << "\n== Ablation D: MIP warm start on/off (2s budget) ==\n\n";
  {
    table t({"benchmark", "S_warm", "D_warm", "S_cold", "D_cold"});
    bool warm_never_worse = true;
    for (const frontend::benchmark_spec& spec : frontend::benchmark_suite()) {
      bdd::manager m(spec.net.input_count());
      const core::bdd_graph g = graph_of(spec.net, m);
      if (g.g.node_count() > 140) continue;
      core::mip_label_options warm;
      warm.time_limit_seconds = 2.0;
      core::mip_label_options cold = warm;
      cold.warm_start_with_oct = false;
      const auto with = core::compute_stats(core::label_weighted(g, warm).l);
      core::labeling_stats without;
      std::string cold_s = "-", cold_d = "-";
      try {
        without = core::compute_stats(core::label_weighted(g, cold).l);
        cold_s = cell(without.semiperimeter);
        cold_d = cell(without.max_dimension);
        if (with.semiperimeter > without.semiperimeter)
          warm_never_worse = false;
      } catch (const error&) {
        // No incumbent found at all without the warm start.
      }
      t.add_row({spec.name, cell(with.semiperimeter),
                 cell(with.max_dimension), cold_s, cold_d});
      bench::json_report::record row;
      row.field("benchmark", spec.name)
          .field("s_warm", with.semiperimeter)
          .field("d_warm", with.max_dimension);
      if (cold_s != "-")
        row.field("s_cold", without.semiperimeter)
            .field("d_cold", without.max_dimension);
      json.add_record("warm_start", std::move(row));
    }
    t.print(std::cout);
    std::cout << '\n';
    bench::shape_check(warm_never_worse,
                       "warm-started runs never end with a larger "
                       "semiperimeter than cold runs at the same budget");
  }

  // ---- E: CONTRA delay model ----------------------------------------------
  std::cout << "\n== Ablation E: CONTRA sequential vs wave-parallel delay "
               "==\n\n";
  {
    table t({"benchmark", "flow_delay", "contra_seq", "contra_parallel"});
    double flow_total = 0.0, parallel_total = 0.0;
    for (const frontend::benchmark_spec& spec : frontend::benchmark_suite()) {
      if (spec.family != "epfl-control-like") continue;
      const core::synthesis_result flow =
          core::synthesize(spec.net, bench::oct_options(5.0));
      const magic::contra_result contra = magic::contra_synthesize(spec.net);
      t.add_row({spec.name, cell(flow.stats.delay_steps),
                 cell(contra.delay_steps), cell(contra.parallel_delay_steps)});
      json.add_record(
          "contra_delay",
          bench::json_report::record{}
              .field("benchmark", spec.name)
              .field("flow_delay", flow.stats.delay_steps)
              .field("contra_seq", static_cast<double>(contra.delay_steps))
              .field("contra_parallel",
                     static_cast<double>(contra.parallel_delay_steps)));
      flow_total += flow.stats.delay_steps;
      parallel_total += static_cast<double>(contra.parallel_delay_steps);
    }
    t.print(std::cout);
    std::cout << '\n';
    bench::shape_check(flow_total < 1.5 * parallel_total,
                       "COMPACT's total delay stays competitive even against "
                       "an optimistically parallel MAGIC schedule");
  }
  if (args.json_path) {
    json.scalar("experiment", std::string("ablation"));
    json.write_file(*args.json_path);
  }
  return 0;
}
