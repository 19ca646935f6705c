#include "milp/branch_and_bound.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <queue>

#include "milp/presolve.hpp"
#include "util/error.hpp"
#include "util/memtrack.hpp"
#include "util/metrics.hpp"
#include "util/watchdog.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace compact::milp {
namespace {

constexpr double inf = std::numeric_limits<double>::infinity();
constexpr double int_tolerance = 1e-6;

/// Nodes solved per round. Constant by design: the search tree depends on
/// the batch size, so it must never depend on mip_options::threads or the
/// bit-identical-across-thread-counts guarantee breaks.
constexpr std::size_t batch_size = 8;

/// A branched node's optimal LP basis, shared by its children: each child
/// loads it with a fresh factorization and re-solves under its own bounds.
struct node_basis {
  lp_basis status;
  int open_children = 0;  // children still queued; coordinator-only
};

struct bb_node {
  double lp_bound = -inf;  // parent LP objective (lower bound for subtree)
  std::uint64_t id = 0;    // creation order; the deterministic tie-break
  // Branching decisions along the path from the root: (var, lower, upper).
  std::vector<std::tuple<int, double, double>> fixings;
  std::shared_ptr<node_basis> basis;  // parent's final basis; null at the root
};

struct node_order {
  bool operator()(const bb_node& a, const bb_node& b) const {
    // Min-heap on (bound, id): best-first, oldest node among equal bounds.
    if (a.lp_bound != b.lp_bound) return a.lp_bound > b.lp_bound;
    return a.id > b.id;
  }
};

/// Branching variable: among the fractional integer variables of the
/// highest branch-priority class, the one closest to 0.5. Returns -1 when
/// `x` is integral on all integer variables.
int most_fractional(const model& m, const std::vector<double>& x) {
  int best = -1;
  int best_priority = 0;
  double best_dist = 0.0;
  for (std::size_t j = 0; j < m.variable_count(); ++j) {
    const variable& v = m.var(static_cast<int>(j));
    if (!v.is_integer) continue;
    const double frac = x[j] - std::floor(x[j]);
    const double dist = std::min(frac, 1.0 - frac);
    if (dist <= int_tolerance) continue;
    const bool better = best == -1 ||
                        v.branch_priority > best_priority ||
                        (v.branch_priority == best_priority &&
                         dist > best_dist + 1e-12);
    if (better) {
      best = static_cast<int>(j);
      best_priority = v.branch_priority;
      best_dist = dist;
    }
  }
  return best;
}

/// Try rounding a fractional LP point to a feasible integer point.
std::optional<std::vector<double>> round_heuristic(const model& m,
                                                   std::vector<double> x) {
  for (std::size_t j = 0; j < m.variable_count(); ++j)
    if (m.var(static_cast<int>(j)).is_integer) x[j] = std::round(x[j]);
  if (m.is_feasible(x)) return x;
  return std::nullopt;
}

/// Round a fractional LP bound up to the next multiple of `step` (the
/// caller's objective lattice, mip_options::objective_lattice; 0 = none).
/// Every integer-feasible objective is a lattice multiple, so the result is
/// still a valid dual bound for the LP's region.
double round_up_to_lattice(double bound, double step) {
  if (step <= 0.0 || !std::isfinite(bound)) return bound;
  return std::ceil(bound / step - 1e-6) * step;
}

/// Diving heuristic: starting from `engine`'s solved node, repeatedly fix
/// the most fractional integer variable to its nearest value (flipping once
/// on infeasibility) and re-solve from the previous basis, until the LP
/// relaxation turns integral. Returns an integer-feasible point for the
/// *original* model or nullopt. `engine` is the item's own, so its bounds
/// need no restoring. Adds the dive's LP iterations to `iterations`.
///
/// The dive stops as soon as its LP bound, rounded up to `lattice`, reaches
/// `cutoff` (the round-start incumbent): every later point lies inside that
/// LP's region, so none could be accepted as a strictly better incumbent.
std::optional<std::vector<double>> dive_heuristic(
    lp_engine& engine, const model& searched, const model& original,
    const lp_options& lp_opts, lp_engine::clock::time_point deadline,
    std::vector<double> x, int max_depth, double cutoff, double lattice,
    long& iterations) {
  std::vector<bool> skipped(searched.variable_count(), false);
  auto resolve = [&] {
    lp_result lp = engine.solve(lp_opts, deadline);
    iterations += lp.iterations;
    return lp;
  };
  for (int depth = 0; depth < max_depth; ++depth) {
    if (lp_engine::clock::now() >= deadline) return std::nullopt;
    // Most fractional non-skipped integer variable (priority-aware).
    int var = -1;
    int best_priority = 0;
    double best_dist = 0.0;
    for (std::size_t j = 0; j < searched.variable_count(); ++j) {
      const variable& v = searched.var(static_cast<int>(j));
      if (!v.is_integer || skipped[j]) continue;
      const double frac = x[j] - std::floor(x[j]);
      const double dist = std::min(frac, 1.0 - frac);
      if (dist <= int_tolerance) continue;
      if (var == -1 || v.branch_priority > best_priority ||
          (v.branch_priority == best_priority && dist > best_dist)) {
        var = static_cast<int>(j);
        best_priority = v.branch_priority;
        best_dist = dist;
      }
    }
    if (var == -1) {
      // Integral on every non-skipped variable; snap and test.
      for (std::size_t j = 0; j < searched.variable_count(); ++j)
        if (searched.var(static_cast<int>(j)).is_integer)
          x[j] = std::round(x[j]);
      if (original.is_feasible(x)) return x;
      return std::nullopt;
    }
    const double saved_lower = engine.lower(var);
    const double saved_upper = engine.upper(var);
    const double rounded = std::round(x[static_cast<std::size_t>(var)]);
    engine.set_bounds(var, rounded, rounded);
    lp_result lp = resolve();
    if (lp.status != lp_status::optimal) {
      // Flip once; if that also fails, leave the variable free for later
      // instead of abandoning the dive.
      const double flipped = rounded > saved_lower ? saved_lower : saved_upper;
      if (std::isfinite(flipped)) {
        engine.set_bounds(var, flipped, flipped);
        lp = resolve();
      }
      if (lp.status != lp_status::optimal) {
        engine.set_bounds(var, saved_lower, saved_upper);
        skipped[static_cast<std::size_t>(var)] = true;
        continue;
      }
    }
    if (round_up_to_lattice(lp.objective, lattice) >= cutoff - 1e-9)
      return std::nullopt;
    x = std::move(lp.x);
  }
  return std::nullopt;
}

double relative_gap(double incumbent, double bound) {
  if (!std::isfinite(incumbent) || !std::isfinite(bound)) return 1.0;
  const double gap =
      (incumbent - bound) / std::max(std::abs(incumbent), 1.0);
  return std::clamp(gap, 0.0, 1.0);
}

/// Everything one batch item reports back to the (serial) merge step.
struct item_outcome {
  lp_status status = lp_status::infeasible;
  double objective = inf;
  long iterations = 0;       // node LP plus strong-branching probes
  long dive_iterations = 0;  // diving heuristic LPs
  bool pruned = false;  // bound >= round-start incumbent, node concluded
  int branch_var = -1;
  double down_lower = 0.0, down_upper = 0.0;  // child bounds when branching
  double up_lower = 0.0, up_upper = 0.0;
  // Child dual bounds from strong-branching probes (-inf = not probed; the
  // merge takes max(parent bound, probe bound)). A dead child was proven
  // infeasible or past the incumbent and must not be queued.
  double down_bound = -inf, up_bound = -inf;
  bool down_dead = false, up_dead = false;
  std::optional<std::vector<double>> integral;  // snapped integer point
  std::optional<std::vector<double>> rounded;   // rounding heuristic point
  bool dive_attempted = false;
  std::optional<std::vector<double>> dived;     // diving heuristic point
  lp_basis basis;  // the node LP's optimal basis, kept when branching
  int thread_slot = 0;
  std::uint64_t busy_us = 0;
};

metric_series& gap_over_time() {
  static metric_series& series = global_metrics().series("milp.gap_over_time");
  return series;
}

}  // namespace

void publish_solve_effort(const solve_effort& effort) {
  if (!metrics_enabled()) return;
  metrics_registry& registry = global_metrics();
  static metric_counter& nodes = registry.counter("milp.bnb.nodes_explored");
  static metric_counter& lp = registry.counter("milp.bnb.lp_iterations");
  static metric_counter& dive_lp =
      registry.counter("milp.bnb.dive_lp_iterations");
  static metric_counter& incumbents = registry.counter("milp.bnb.incumbents");
  static metric_counter& rounds = registry.counter("milp.bnb.rounds");
  static metric_counter& solves = registry.counter("milp.bnb.solves");
  nodes.add(effort.nodes_explored);
  lp.add(effort.lp_iterations);
  dive_lp.add(effort.dive_lp_iterations);
  incumbents.add(effort.incumbents);
  rounds.add(effort.rounds);
  solves.add(effort.solves);
}

// Publishes the solve's effort on every exit path of solve_mip (several
// early returns).
struct solve_metrics_guard {
  const mip_result& result;
  const std::uint64_t& lp_iterations;
  const std::uint64_t& dive_lp_iterations;
  const std::uint64_t& incumbents;
  const std::uint64_t& rounds;
  ~solve_metrics_guard() {
    publish_solve_effort({static_cast<std::uint64_t>(result.nodes_explored),
                          lp_iterations, dive_lp_iterations, incumbents,
                          rounds, 1});
  }
};

mip_result solve_mip(const model& original, const mip_options& options) {
  const trace_span span("solve_mip", "milp");
  stopwatch clock;
  // Every LP of this solve stops at one absolute deadline on the solve's
  // own clock, however many nodes, probes and dive steps came before it.
  const lp_engine::clock::time_point deadline =
      options.time_limit_seconds < 1e9
          ? lp_engine::clock::now() +
                std::chrono::duration_cast<lp_engine::clock::duration>(
                    std::chrono::duration<double>(
                        std::max(0.0, options.time_limit_seconds)))
          : lp_engine::clock::time_point::max();
  mip_result result;
  std::uint64_t lp_iterations = 0;       // node and probe LP iterations
  std::uint64_t dive_lp_iterations = 0;  // diving heuristic LP iterations
  std::uint64_t incumbents = 0;          // accepted incumbent improvements
  std::uint64_t rounds = 0;              // synchronous search rounds
  const solve_metrics_guard metrics_guard{result, lp_iterations,
                                          dive_lp_iterations, incumbents,
                                          rounds};

  for (std::size_t j = 0; j < original.variable_count(); ++j) {
    const variable& v = original.var(static_cast<int>(j));
    if (v.is_integer)
      check(std::isfinite(v.lower) && std::isfinite(v.upper),
            "solve_mip: integer variables need finite bounds");
  }

  double incumbent_obj = inf;
  std::vector<double> incumbent;
  if (options.warm_start) {
    check(original.is_feasible(*options.warm_start),
          "solve_mip: warm start is not feasible");
    incumbent = *options.warm_start;
    incumbent_obj = original.objective_value(incumbent);
  }

  // Presolve: the tree search runs on the reduced model. Indexing is
  // preserved, so incumbents live in the original space and no postsolve is
  // needed; feasibility of accepted incumbents is always re-checked against
  // `original`.
  model searched = original;
  if (options.presolve) {
    presolve_result pre = presolve_model(original);
    if (pre.stats.proved_infeasible) {
      result.seconds = clock.seconds();
      if (!std::isfinite(incumbent_obj)) {
        result.status = mip_status::infeasible;
        return result;
      }
      // A feasible warm start contradicts the infeasibility proof; trust
      // the checked point (this can only happen right at tolerance edges)
      // and report it as the final incumbent.
      result.x = std::move(incumbent);
      result.objective = incumbent_obj;
      result.best_bound = incumbent_obj;
      result.relative_gap = 0.0;
      result.status = mip_status::optimal;
      return result;
    }
    searched = std::move(pre.reduced);
  }

  // Milestones flow out through the on_trace event callback rather than a
  // stored vector; `recorded` only tracks whether the terminal summary entry
  // below should fire for bound-only runs.
  long recorded = 0;
  double last_metric_incumbent = inf;
  auto record = [&](double bound) {
    mip_trace_entry entry;
    entry.seconds = clock.seconds();
    entry.best_integer = incumbent_obj;
    entry.best_bound = bound;
    entry.relative_gap = relative_gap(incumbent_obj, bound);
    ++recorded;
    if (incumbent_obj < last_metric_incumbent - 1e-12) {
      last_metric_incumbent = incumbent_obj;
      ++incumbents;
    }
    if (metrics_enabled()) {
      gap_over_time().append(entry.seconds, entry.relative_gap);
      if (std::isfinite(bound)) {
        static metric_series& bounds =
            global_metrics().series("milp.bound_over_time");
        bounds.append(entry.seconds, bound);
      }
      if (std::isfinite(incumbent_obj)) {
        static metric_series& incumbents =
            global_metrics().series("milp.incumbent_over_time");
        incumbents.append(entry.seconds, incumbent_obj);
      }
    }
    if (options.on_trace) options.on_trace(entry);
    if (options.progress)
      options.progress(entry.seconds, incumbent_obj, bound);
  };

  std::priority_queue<bb_node, std::vector<bb_node>, node_order> open;
  std::uint64_t next_node_id = 0;
  open.push(bb_node{-inf, next_node_id++, {}, nullptr});

  // Worker pool for node LPs. Created once per solve. Every batch item
  // builds its own LP engine over the shared, immutable sparse copy of
  // `searched`, so workers share nothing mutable.
  const std::shared_ptr<const lp_matrix> matrix = make_lp_matrix(searched);
  const int thread_count = std::max(1, options.threads);
  std::optional<thread_pool> pool;
  if (thread_count > 1) pool.emplace(thread_count);

  bool limits_hit = false;
  bool root_done = false;
  double last_recorded_bound = -inf;
  int dive_failures = 0;
  // Set when a node is dropped without a proven conclusion (LP hit its own
  // limit): the final bound can then no longer certify optimality.
  bool proof_incomplete = false;

  auto gap_closed = [&](double bound) {
    if (!std::isfinite(incumbent_obj)) return false;
    if (relative_gap(incumbent_obj, bound) <= options.gap_tolerance)
      return true;
    return incumbent_obj - bound <= options.absolute_gap_tolerance;
  };

  // Node and probe bounds round up to the objective lattice, which makes
  // near-incumbent subtrees prunable.
  auto strengthen = [&](double bound) {
    return round_up_to_lattice(bound, options.objective_lattice);
  };

  /// Solve one node on its own engine over the reduced model: load the
  /// parent's basis (the root starts from the slack basis), apply the node's
  /// bounds and re-solve with dual pivots. Pure function of the node (its
  /// bounds and parent basis), the round-start incumbent and the LP options
  /// — never of thread scheduling — so the merge below is deterministic.
  /// Every node, the root included, is pruned against the round-start
  /// incumbent (a warm start before the first round).
  auto process_item = [&](const bb_node& node, double round_incumbent,
                          bool dive_scheduled) -> item_outcome {
    stopwatch busy;
    item_outcome out;
    out.thread_slot = current_thread_slot();
    auto finish = [&] {
      out.busy_us = static_cast<std::uint64_t>(busy.seconds() * 1e6);
      return std::move(out);
    };
    lp_engine engine(matrix);
    for (const auto& [var, lo, hi] : node.fixings) engine.set_bounds(var, lo, hi);
    if (node.basis) engine.load_basis(node.basis->status);
    const lp_result lp = engine.solve(options.lp, deadline);
    out.status = lp.status;
    out.iterations = lp.iterations;
    if (lp.status != lp_status::optimal) return finish();
    out.objective = strengthen(lp.objective);
    if (out.objective >= round_incumbent - 1e-9) {
      out.pruned = true;
      return finish();
    }

    out.branch_var = most_fractional(searched, lp.x);
    if (out.branch_var == -1) {
      // Integer feasible: snap to exact integers.
      std::vector<double> x = lp.x;
      for (std::size_t j = 0; j < searched.variable_count(); ++j)
        if (searched.var(static_cast<int>(j)).is_integer)
          x[j] = std::round(x[j]);
      out.integral = std::move(x);
      return finish();
    }
    out.basis = engine.basis();

    // Rounding heuristic: cheap incumbents early in the search.
    out.rounded = round_heuristic(original, lp.x);

    // Strong branching: probe the most fractional candidates with
    // iteration-capped child LPs, each re-solved from this node's optimal
    // engine state after a single bound change; branch where the weaker
    // child bound improves most. A probe that proves a child infeasible or
    // past the incumbent concludes that subtree here — it is never queued —
    // and a node with both children dead is finished outright.
    if (options.strong_branching_candidates > 0) {
      struct sb_candidate {
        double dist;
        int priority;
        int var;
      };
      std::vector<sb_candidate> candidates;
      for (std::size_t j = 0; j < searched.variable_count(); ++j) {
        const variable& v = searched.var(static_cast<int>(j));
        if (!v.is_integer) continue;
        const double frac = lp.x[j] - std::floor(lp.x[j]);
        const double dist = std::min(frac, 1.0 - frac);
        if (dist <= int_tolerance) continue;
        candidates.push_back({dist, v.branch_priority, static_cast<int>(j)});
      }
      std::sort(candidates.begin(), candidates.end(),
                [](const sb_candidate& a, const sb_candidate& b) {
                  if (a.priority != b.priority) return a.priority > b.priority;
                  if (a.dist != b.dist) return a.dist > b.dist;
                  return a.var < b.var;
                });
      if (candidates.size() >
          static_cast<std::size_t>(options.strong_branching_candidates))
        candidates.resize(
            static_cast<std::size_t>(options.strong_branching_candidates));

      lp_options probe_lp = options.lp;
      probe_lp.max_iterations = options.strong_branching_iterations;
      const lp_engine solved = engine;
      double best_score = -inf;
      for (const sb_candidate& c : candidates) {
        const double value = lp.x[static_cast<std::size_t>(c.var)];
        const double lo = engine.lower(c.var);
        const double hi = engine.upper(c.var);
        double bound[2] = {out.objective, out.objective};  // down, up
        bool dead[2] = {false, false};
        for (int side = 0; side < 2; ++side) {
          engine.set_bounds(c.var, side == 0 ? lo : std::ceil(value),
                            side == 0 ? std::floor(value) : hi);
          const lp_result probe = engine.solve(probe_lp, deadline);
          out.iterations += probe.iterations;
          if (probe.status == lp_status::infeasible) {
            dead[side] = true;
          } else if (probe.status == lp_status::optimal) {
            bound[side] = std::max(out.objective, strengthen(probe.objective));
            if (bound[side] >= round_incumbent - 1e-9) dead[side] = true;
          }
          // Inconclusive probes (iteration cap) keep the parent bound.
          engine = solved;
        }
        if (dead[0] && dead[1]) {
          out.pruned = true;  // no improving solution below this node
          break;
        }
        const double gain_down = dead[0] ? 1e30 : bound[0] - out.objective;
        const double gain_up = dead[1] ? 1e30 : bound[1] - out.objective;
        const double score = std::min(gain_down, gain_up) +
                             1e-4 * std::max(gain_down, gain_up);
        if (score > best_score) {
          best_score = score;
          out.branch_var = c.var;
          out.down_bound = bound[0];
          out.up_bound = bound[1];
          out.down_dead = dead[0];
          out.up_dead = dead[1];
        }
      }
      if (out.pruned) return finish();
    }

    const double value = lp.x[static_cast<std::size_t>(out.branch_var)];
    out.down_lower = engine.lower(out.branch_var);
    out.down_upper = std::floor(value);
    out.up_lower = std::ceil(value);
    out.up_upper = engine.upper(out.branch_var);

    // Diving heuristic: LP-guided fix-and-resolve from this node's basis,
    // scheduled by the coordinator (deterministically, by node ordinal).
    if (dive_scheduled) {
      out.dive_attempted = true;
      out.dived = dive_heuristic(
          engine, searched, original, options.lp, deadline, lp.x,
          std::min<int>(static_cast<int>(searched.variable_count()), 160),
          round_incumbent, options.objective_lattice, out.dive_iterations);
    }
    return finish();
  };

  std::vector<bb_node> batch;
  std::vector<bool> dive_flags;
  // milp.bnb.nodes_by_worker.tid<slot> handles, by thread slot.
  std::vector<metric_counter*> nodes_by_worker;
  account_guard open_nodes_charge(memtrack_account("milp.bnb_nodes"));
  std::uint64_t open_basis_bytes = 0;
  while (!open.empty()) {
    if (clock.seconds() > options.time_limit_seconds ||
        result.nodes_explored >= options.node_limit) {
      limits_hit = true;
      break;
    }
    ++rounds;
    // Round boundary: sample the ambient resource watchdog (a memory or
    // deadline trip aborts the whole solve with resource_limit_error) and
    // re-account the open-node queue. The byte figure counts node headers
    // and the stored parent bases (one status byte per column, each counted
    // once however many children share it); per-node branching paths are
    // small and excluded.
    (void)resource_checkpoint("milp.bnb.round");
    open_nodes_charge.set(open.size() * sizeof(bb_node) + open_basis_bytes);
    const double round_start_seconds = clock.seconds();

    // Global dual bound: best (lowest) bound among open nodes, capped by the
    // incumbent. Before the root LP is solved there is no meaningful bound.
    const double global_bound =
        root_done ? std::min(open.top().lp_bound, incumbent_obj) : -inf;
    // Trace bound improvements at ~0.2% granularity (keeps Fig.10-style
    // traces readable instead of one entry per explored node).
    const double record_step =
        std::isfinite(incumbent_obj)
            ? std::max(1e-6, 0.002 * std::max(std::abs(incumbent_obj), 1.0))
            : 1e-6;
    if (root_done && std::isfinite(global_bound) &&
        global_bound > last_recorded_bound + record_step) {
      last_recorded_bound = global_bound;
      record(global_bound);
    }
    if (root_done && gap_closed(global_bound)) break;

    // Pop this round's batch, dropping nodes already pruned by the current
    // incumbent (they are concluded, not explored).
    batch.clear();
    while (batch.size() < batch_size && !open.empty()) {
      bb_node node = open.top();
      open.pop();
      if (node.basis && --node.basis->open_children == 0)
        open_basis_bytes -= node.basis->status.size();
      if (root_done && (node.lp_bound >= incumbent_obj - 1e-9 ||
                        gap_closed(node.lp_bound)))
        continue;
      batch.push_back(std::move(node));
    }
    if (batch.empty()) break;

    // Round-start snapshot everything the items depend on.
    const double round_incumbent = incumbent_obj;
    const double remaining =
        options.time_limit_seconds - clock.seconds();
    const long dive_period = std::isfinite(round_incumbent)
                                 ? 128
                                 : (dive_failures < 5 ? 4 : 64);
    dive_flags.assign(batch.size(), false);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const long ordinal = result.nodes_explored + static_cast<long>(i) + 1;
      dive_flags[i] = ordinal % dive_period == 1 && remaining > 0.5;
    }

    std::vector<item_outcome> outcomes;
    outcomes.reserve(batch.size());
    if (pool && batch.size() > 1) {
      std::vector<std::future<item_outcome>> futures;
      futures.reserve(batch.size());
      for (std::size_t i = 0; i < batch.size(); ++i) {
        futures.push_back(pool->submit([&, i] {
          return process_item(batch[i], round_incumbent, dive_flags[i]);
        }));
      }
      for (auto& f : futures) f.wait();  // never unwind past running tasks
      for (auto& f : futures) outcomes.push_back(f.get());
    } else {
      for (std::size_t i = 0; i < batch.size(); ++i)
        outcomes.push_back(
            process_item(batch[i], round_incumbent, dive_flags[i]));
    }

    // Merge in item order: this loop is the only place the incumbent, the
    // open heap, and node ids mutate, so the search is a deterministic
    // function of the batch (which is itself thread-count-independent).
    std::uint64_t round_busy_us = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const bb_node& node = batch[i];
      item_outcome& r = outcomes[i];
      ++result.nodes_explored;
      lp_iterations += static_cast<std::uint64_t>(r.iterations);
      dive_lp_iterations += static_cast<std::uint64_t>(r.dive_iterations);
      round_busy_us += r.busy_us;
      if (metrics_enabled()) {
        const auto slot = static_cast<std::size_t>(r.thread_slot);
        if (slot >= nodes_by_worker.size())
          nodes_by_worker.resize(slot + 1, nullptr);
        if (nodes_by_worker[slot] == nullptr)
          nodes_by_worker[slot] = &global_metrics().counter(
              "milp.bnb.nodes_by_worker.tid" + std::to_string(slot));
        nodes_by_worker[slot]->increment();
      }

      if (r.status == lp_status::unbounded) {
        // Only possible at the root of a minimization with unbounded
        // continuous directions.
        result.status = mip_status::unbounded;
        result.seconds = clock.seconds();
        return result;
      }
      if (r.status == lp_status::infeasible ||
          r.status == lp_status::iteration_limit) {
        if (!root_done && r.status == lp_status::infeasible &&
            !options.warm_start) {
          result.status = mip_status::infeasible;
          result.seconds = clock.seconds();
          return result;
        }
        if (r.status == lp_status::iteration_limit) proof_incomplete = true;
        root_done = true;
        continue;
      }
      if (!root_done) {
        root_done = true;
        record(r.objective);
      }
      if (r.pruned) continue;
      // Re-check against the merged incumbent, which may have improved
      // since the round-start snapshot the worker pruned against.
      if (r.objective >= incumbent_obj - 1e-9) continue;

      auto accept = [&](std::vector<double>&& x) {
        const double obj = original.objective_value(x);
        if (obj < incumbent_obj - 1e-9 && original.is_feasible(x)) {
          incumbent_obj = obj;
          incumbent = std::move(x);
          record(std::min(open.empty() ? r.objective : open.top().lp_bound,
                          incumbent_obj));
          return true;
        }
        return false;
      };

      if (r.branch_var == -1) {
        if (r.integral) accept(std::move(*r.integral));
        continue;
      }
      if (r.rounded) accept(std::move(*r.rounded));

      // Both children warm-start from one stored copy of this node's basis.
      auto basis = std::make_shared<node_basis>();
      basis->status = std::move(r.basis);
      basis->open_children = (r.down_dead ? 0 : 1) + (r.up_dead ? 0 : 1);
      if (basis->open_children > 0) open_basis_bytes += basis->status.size();
      bb_node down;
      down.lp_bound = std::max(r.objective, r.down_bound);
      down.id = next_node_id++;
      down.fixings = node.fixings;
      down.fixings.emplace_back(r.branch_var, r.down_lower, r.down_upper);
      down.basis = basis;
      bb_node up;
      up.lp_bound = std::max(r.objective, r.up_bound);
      up.id = next_node_id++;
      up.fixings = node.fixings;
      up.fixings.emplace_back(r.branch_var, r.up_lower, r.up_upper);
      up.basis = std::move(basis);
      if (!r.down_dead) open.push(std::move(down));
      if (!r.up_dead) open.push(std::move(up));

      if (r.dive_attempted) {
        // A dive cut off at the incumbent also counts as a failure; that is
        // harmless, since dive_failures paces dives only before the first
        // incumbent.
        if (r.dived) {
          if (accept(std::move(*r.dived))) dive_failures = 0;
        } else {
          ++dive_failures;
        }
      }
    }

    // Busy vs idle worker time: the round wall-clock times the worker count
    // bounds what the pool could have done; the shortfall (merge barrier,
    // LP imbalance, batches smaller than the pool) is idle time.
    if (metrics_enabled() && pool) {
      static metric_counter& busy =
          global_metrics().counter("milp.bnb.worker_busy_us");
      busy.add(round_busy_us);
      const auto capacity_us = static_cast<std::uint64_t>(
          (clock.seconds() - round_start_seconds) * 1e6 *
          static_cast<double>(thread_count));
      if (capacity_us > round_busy_us) {
        static metric_counter& idle =
            global_metrics().counter("milp.bnb.worker_idle_us");
        idle.add(capacity_us - round_busy_us);
      }
    }
  }

  result.seconds = clock.seconds();
  // A completed search (queue drained, every node concluded) proves the
  // incumbent optimal; otherwise the bound is the best open-node bound, or
  // -inf when even the root never produced one.
  const bool search_complete = open.empty() && !limits_hit && !proof_incomplete;
  if (open.empty()) {
    result.best_bound = search_complete && std::isfinite(incumbent_obj)
                            ? incumbent_obj
                            : (root_done && !proof_incomplete &&
                                       std::isfinite(incumbent_obj)
                                   ? incumbent_obj
                                   : -inf);
  } else {
    result.best_bound = std::min(open.top().lp_bound, incumbent_obj);
  }
  if (!root_done && !std::isfinite(incumbent_obj)) {
    result.status = mip_status::no_solution;
    return result;
  }

  if (std::isfinite(incumbent_obj)) {
    result.x = incumbent;
    result.objective = incumbent_obj;
    result.relative_gap = relative_gap(incumbent_obj, result.best_bound);
    const bool proved = search_complete || gap_closed(result.best_bound);
    if (proved && search_complete) result.best_bound = incumbent_obj;
    result.relative_gap = relative_gap(incumbent_obj, result.best_bound);
    result.status = proved ? mip_status::optimal : mip_status::feasible;
  } else {
    result.relative_gap = 1.0;
    result.status = limits_hit || proof_incomplete ? mip_status::no_solution
                                                   : mip_status::infeasible;
  }
  if (recorded > 0 || std::isfinite(incumbent_obj)) {
    mip_trace_entry entry;
    entry.seconds = result.seconds;
    entry.best_integer = incumbent_obj;
    entry.best_bound = result.best_bound;
    entry.relative_gap = result.relative_gap;
    if (metrics_enabled())
      gap_over_time().append(entry.seconds, entry.relative_gap);
    if (options.on_trace) options.on_trace(entry);
  }
  return result;
}

}  // namespace compact::milp
