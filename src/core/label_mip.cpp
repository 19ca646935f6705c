#include <algorithm>
#include <cmath>

#include "core/labelers.hpp"
#include "milp/model.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace compact::core {
namespace {

/// Variable layout inside the MIP: for node i, x^H_i = 2i, x^V_i = 2i+1;
/// edge selectors and D follow.
struct mip_layout {
  static int xh(graph::node_id i) { return 2 * i; }
  static int xv(graph::node_id i) { return 2 * i + 1; }
};

/// Method 1 run used as warm start, memoized through `cache` when one is
/// supplied. The key matches a standalone "oct" labeler run with the same
/// options, so gamma sweeps over one graph share a single OCT solve.
oct_label_result warm_oct_labeling(const bdd_graph& graph,
                                   const oct_label_options& oct,
                                   labeling_cache* cache) {
  if (cache == nullptr) return label_minimal_semiperimeter(graph, oct);
  const label_cache_key key =
      make_label_cache_key(graph, "oct", oct_cache_salt(oct));
  if (std::optional<cached_labeling> hit = cache->find(key)) {
    oct_label_result result;
    result.l = std::move(hit->l);
    result.optimal = hit->optimal;
    result.relative_gap = hit->relative_gap;
    result.oct_size = hit->oct_size;
    result.promoted = hit->promoted;
    return result;
  }
  oct_label_result result = label_minimal_semiperimeter(graph, oct);
  cached_labeling entry;
  entry.l = result.l;
  entry.optimal = result.optimal;
  entry.relative_gap = result.relative_gap;
  entry.oct_size = result.oct_size;
  entry.promoted = result.promoted;
  cache->store(key, std::move(entry));
  return result;
}

/// Whether no labeling beats Method 1's, decided without a MIP. Method 1
/// proved k, the minimum VH count, and its labeling has S = n + k and D_w.
/// A labeling with k' VH nodes has S = n + k' and D >= ceil(S/2), so:
///  1. every k' > k is ruled out by the bound at k' = k + 1, which only
///     grows with k';
///  2. at k' = k the VH set is a minimum aligned transversal X, and the
///     best D for X is Method 1's own colouring and balance of X. Unless
///     the bound D >= ceil(S/2) already rules this out, every X is
///     enumerated, stopping at the first that balances better than D_w.
/// Objectives compare with the search's incumbent tolerance: the search
/// would return this very labeling, since it accepts only strictly better
/// ones. A fitting dimension budget only removes competitors.
bool certifies_optimum(const bdd_graph& graph, const oct_label_result& warm,
                       const labeling_stats& stats,
                       const mip_label_options& options) {
  if (!warm.optimal) return false;
  if (options.max_rows && stats.rows > *options.max_rows) return false;
  if (options.max_columns && stats.columns > *options.max_columns)
    return false;
  const double gamma = options.gamma;
  const auto objective = [gamma](int s, int d) {
    return gamma * s + (1.0 - gamma) * d;
  };
  const int s = stats.semiperimeter;
  const double beats = objective(s, stats.max_dimension) - 1e-9;
  if (objective(s + 1, (s + 2) / 2) < beats) return false;
  if (objective(s, (s + 1) / 2) >= beats) return true;

  const trace_span span("certificate", "label");
  const anchored_graph anchored =
      anchor_aligned_nodes(graph, options.alignment);
  const graph::oct_enumeration listed = graph::enumerate_minimum_transversals(
      anchored.g, anchored.anchor, warm.oct_size, certificate_node_limit,
      [&](const std::vector<bool>& transversal) {
        const labeling l = label_transversal(anchored, transversal, true);
        return objective(s, compute_stats(l).max_dimension) < beats;
      });
  if (metrics_enabled()) {
    static metric_counter& search_nodes =
        global_metrics().counter("label_mip.certificate_search_nodes");
    search_nodes.add(listed.search_nodes);
  }
  return listed.complete;
}

}  // namespace

mip_label_result label_weighted(const bdd_graph& graph,
                                const mip_label_options& options) {
  const trace_span span("label_mip", "label");
  check(options.gamma >= 0.0 && options.gamma <= 1.0,
        "label_weighted: gamma must lie in [0, 1]");
  const graph::undirected_graph& g = graph.g;
  const auto n = static_cast<graph::node_id>(g.node_count());

  mip_label_result result;
  if (n == 0) {
    result.optimal = true;
    return result;
  }

  // Solver milestones arrive as events: each one lands in the returned
  // trace (Fig. 10) and, when a sink is attached, in telemetry.
  const auto on_trace = [&result,
                         &options](const milp::mip_trace_entry& entry) {
    result.trace.push_back(entry);
    if (options.telemetry != nullptr) {
      telemetry_event event;
      event.stage = "mip_trace";
      event.seconds = entry.seconds;
      event.metric("best_integer", entry.best_integer);
      event.metric("best_bound", entry.best_bound);
      event.metric("relative_gap", entry.relative_gap);
      options.telemetry->emit(event);
    }
  };
  auto finish = [&]() -> mip_label_result {
    check(is_feasible(g, result.l), "label_weighted: infeasible labeling");
    if (options.alignment)
      check(satisfies_alignment(graph, result.l),
            "label_weighted: alignment violated");
    return std::move(result);
  };

  // ---- Method 1's warm start, fetched once. ------------------------------
  std::optional<oct_label_result> warm;
  if (options.warm_start_with_oct) {
    oct_label_options oct;
    oct.alignment = options.alignment;
    oct.reduce = options.reduce;
    oct.threads = options.threads;
    // The warm start must not dwarf the MIP's own budget.
    oct.time_limit_seconds = std::min(
        options.oct_time_limit_seconds,
        std::max(1.0, options.time_limit_seconds));
    warm = warm_oct_labeling(graph, oct, options.cache);

    // A certified warm start is the answer: the search would return this
    // very point, since it accepts only strictly better incumbents.
    const labeling_stats stats = compute_stats(warm->l);
    if (certifies_optimum(graph, *warm, stats, options)) {
      result.l = std::move(warm->l);
      result.optimal = true;
      result.relative_gap = 0.0;
      result.objective = options.gamma * stats.semiperimeter +
                         (1.0 - options.gamma) * stats.max_dimension;
      result.best_bound = result.objective;
      result.nodes_explored = 0;
      milp::mip_trace_entry entry;
      entry.best_integer = result.objective;
      entry.best_bound = result.objective;
      entry.relative_gap = 0.0;
      on_trace(entry);
      milp::publish_solve_effort({});
      if (metrics_enabled()) {
        static metric_counter& certified =
            global_metrics().counter("label_mip.certified");
        certified.increment();
      }
      return finish();
    }
  }

  // ---- Build the MIP of Eq. 4 (+ Eq. 7 alignment). ----------------------
  milp::model m;
  const double gamma = options.gamma;
  for (graph::node_id i = 0; i < n; ++i) {
    // Objective gamma*S with S = sum of all label indicators.
    const int xh = m.add_binary(gamma, "xH" + std::to_string(i));
    const int xv = m.add_binary(gamma, "xV" + std::to_string(i));
    check(xh == mip_layout::xh(i) && xv == mip_layout::xv(i),
          "label_weighted: variable layout mismatch");
    // Every node needs at least one label.
    m.add_constraint({{xh, 1.0}, {xv, 1.0}}, milp::relation::greater_equal,
                     1.0);
  }
  // D is integral at every labeling (it is max(R, C)); declaring it integer
  // lets branch-and-bound round the LP's D = S/2 relaxation value, which is
  // what closes the gap on balanced designs.
  const int d_var =
      m.add_variable(0.0, 2.0 * static_cast<double>(g.node_count()),
                     1.0 - gamma, /*is_integer=*/true, "D");
  m.set_branch_priority(d_var, 2);

  // Edge orientation selectors and connection constraints.
  std::vector<int> edge_selector;
  edge_selector.reserve(g.edge_count());
  for (const graph::edge& e : g.edges()) {
    const int sel = m.add_binary(0.0);
    edge_selector.push_back(sel);
    // x^V_i + x^H_j >= 2 - 2*sel   (sel = 0: i is the bitline side)
    m.add_constraint({{mip_layout::xv(e.u), 1.0},
                      {mip_layout::xh(e.v), 1.0},
                      {sel, 2.0}},
                     milp::relation::greater_equal, 2.0);
    // x^H_i + x^V_j >= 2*sel       (sel = 1: i is the wordline side)
    m.add_constraint({{mip_layout::xh(e.u), 1.0},
                      {mip_layout::xv(e.v), 1.0},
                      {sel, -2.0}},
                     milp::relation::greater_equal, 0.0);
  }

  // D >= R and D >= C.
  {
    std::vector<milp::linear_term> r_terms, c_terms;
    for (graph::node_id i = 0; i < n; ++i) {
      r_terms.push_back({mip_layout::xh(i), 1.0});
      c_terms.push_back({mip_layout::xv(i), 1.0});
    }
    r_terms.push_back({d_var, -1.0});
    c_terms.push_back({d_var, -1.0});
    m.add_constraint(std::move(r_terms), milp::relation::less_equal, 0.0);
    m.add_constraint(std::move(c_terms), milp::relation::less_equal, 0.0);
  }

  // Alignment (Eq. 7): aligned nodes must take at least the H label.
  if (options.alignment)
    for (graph::node_id i : graph.aligned_nodes())
      m.set_bounds(mip_layout::xh(i), 1.0, 1.0);

  // Optional hard dimension budgets (Section III).
  if (options.max_rows) {
    std::vector<milp::linear_term> terms;
    for (graph::node_id i = 0; i < n; ++i)
      terms.push_back({mip_layout::xh(i), 1.0});
    m.add_constraint(std::move(terms), milp::relation::less_equal,
                     static_cast<double>(*options.max_rows), "max_rows");
  }
  if (options.max_columns) {
    std::vector<milp::linear_term> terms;
    for (graph::node_id i = 0; i < n; ++i)
      terms.push_back({mip_layout::xv(i), 1.0});
    m.add_constraint(std::move(terms), milp::relation::less_equal,
                     static_cast<double>(*options.max_columns), "max_cols");
  }

  // Branching priorities: the label indicators are the real decisions; the
  // edge-orientation selectors follow from them.
  for (graph::node_id i = 0; i < n; ++i) {
    m.set_branch_priority(mip_layout::xh(i), 1);
    m.set_branch_priority(mip_layout::xv(i), 1);
  }

  // Valid inequality: D >= max(R, C) >= (R + C)/2 = S/2, i.e. 2D - S >= 0.
  // Tightens the LP relaxation (which otherwise balances R and C at will).
  {
    std::vector<milp::linear_term> terms;
    terms.push_back({d_var, 2.0});
    for (graph::node_id i = 0; i < n; ++i) {
      terms.push_back({mip_layout::xh(i), -1.0});
      terms.push_back({mip_layout::xv(i), -1.0});
    }
    m.add_constraint(std::move(terms), milp::relation::greater_equal, 0.0);
  }

  // ---- Objective lattice and Method 1's warm start. -----------------------
  milp::mip_options mip;
  mip.time_limit_seconds = options.time_limit_seconds;
  mip.threads = options.threads;
  // The objective lives on the lattice {gamma*s + (1-gamma)*d : s, d in Z};
  // when gamma sits on the 1/20 grid the minimal positive lattice element
  // is gcd(p, 20-p)/20, and half of it certifies optimality.
  {
    const double scaled = gamma * 20.0;
    if (std::abs(scaled - std::round(scaled)) < 1e-9) {
      const int p = static_cast<int>(std::llround(scaled));
      const int q = 20;
      int a = p == 0 ? q : p;
      int b = p == 0 ? q : q - p;
      if (b == 0) b = a;
      while (b != 0) {
        const int t = a % b;
        a = b;
        b = t;
      }
      mip.absolute_gap_tolerance = 0.499 * static_cast<double>(a) / q;
      // Same lattice, stronger use: node LP bounds round up to the next
      // lattice point, pruning subtrees that cannot beat the incumbent.
      mip.objective_lattice = static_cast<double>(a) / q;
    }
  }
  if (warm) {
    // Any feasible labeling's VH set is an odd cycle transversal (removing
    // it leaves a V/H 2-colorable, hence bipartite, graph), and under
    // alignment one that avoids Method 1's anchor. When Method 1 proved the
    // minimum VH count k_min for the same alignment setting, S >= n + k_min
    // is a valid cut that typically closes the gamma-weighted root gap.
    if (warm->optimal) {
      std::vector<milp::linear_term> terms;
      for (graph::node_id i = 0; i < n; ++i) {
        terms.push_back({mip_layout::xh(i), 1.0});
        terms.push_back({mip_layout::xv(i), 1.0});
      }
      m.add_constraint(std::move(terms), milp::relation::greater_equal,
                       static_cast<double>(g.node_count() + warm->oct_size));
    }
    std::vector<double> x(m.variable_count(), 0.0);
    for (graph::node_id i = 0; i < n; ++i) {
      const vh_label label = warm->l.label_of[static_cast<std::size_t>(i)];
      x[static_cast<std::size_t>(mip_layout::xh(i))] =
          label != vh_label::v ? 1.0 : 0.0;
      x[static_cast<std::size_t>(mip_layout::xv(i))] =
          label != vh_label::h ? 1.0 : 0.0;
    }
    for (std::size_t e = 0; e < g.edges().size(); ++e) {
      const graph::edge& edge = g.edges()[e];
      const bool v_then_h =
          x[static_cast<std::size_t>(mip_layout::xv(edge.u))] > 0.5 &&
          x[static_cast<std::size_t>(mip_layout::xh(edge.v))] > 0.5;
      x[static_cast<std::size_t>(edge_selector[e])] = v_then_h ? 0.0 : 1.0;
    }
    const labeling_stats stats = compute_stats(warm->l);
    x[static_cast<std::size_t>(d_var)] = stats.max_dimension;
    if (m.is_feasible(x)) {
      mip.warm_start = std::move(x);
    } else {
      // Only dimension budgets can invalidate the constructed warm start.
      check(options.max_rows.has_value() || options.max_columns.has_value(),
            "label_weighted: OCT warm start infeasible");
    }
  }

  // ---- Solve and decode. ---------------------------------------------------
  mip.on_trace = on_trace;
  const milp::mip_result solved = milp::solve_mip(m, mip);
  if (solved.status == milp::mip_status::infeasible)
    throw infeasible_error(
        "label_weighted: the requested design constraints are infeasible");
  check(solved.status == milp::mip_status::optimal ||
            solved.status == milp::mip_status::feasible,
        "label_weighted: no labeling found within the limits");

  result.l.label_of.assign(g.node_count(), vh_label::v);
  for (graph::node_id i = 0; i < n; ++i) {
    const bool h = solved.x[static_cast<std::size_t>(mip_layout::xh(i))] > 0.5;
    const bool v = solved.x[static_cast<std::size_t>(mip_layout::xv(i))] > 0.5;
    check(h || v, "label_weighted: unlabeled node in MIP solution");
    result.l.label_of[static_cast<std::size_t>(i)] =
        h && v ? vh_label::vh : (h ? vh_label::h : vh_label::v);
  }
  result.optimal = solved.status == milp::mip_status::optimal;
  result.relative_gap = solved.relative_gap;
  result.best_bound = solved.best_bound;
  result.objective = solved.objective;
  result.nodes_explored = solved.nodes_explored;
  return finish();
}

}  // namespace compact::core
