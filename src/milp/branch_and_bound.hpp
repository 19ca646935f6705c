// Best-first branch-and-bound for mixed 0/1 integer programs.
//
// Substitutes for CPLEX in the COMPACT flow. It mirrors the solver features
// the paper relies on (Section VI-C and Figures 10-11): a wall-clock time
// limit, warm-start incumbents, and a convergence trace recording the best
// integer solution, the best bound, and the relative gap over time.
//
// The search is organized in synchronous rounds so it parallelizes without
// losing determinism: each round pops a fixed-size batch of best-first nodes
// (ordered by (lp_bound, node id)), solves their LPs on worker threads with
// per-item model copies and the round-start incumbent, then merges children
// and incumbent candidates back in item order. Because the batch size, the
// node ids, and the merge order are all independent of the thread count,
// results are bit-identical for any mip_options::threads value (modulo the
// wall-clock limits, which are timing-dependent even serially).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "milp/model.hpp"
#include "milp/simplex.hpp"

namespace compact::milp {

enum class mip_status {
  optimal,          // proven optimal incumbent
  feasible,         // incumbent found but limits hit before proof
  infeasible,       // no integer-feasible point exists
  unbounded,        // LP relaxation unbounded
  no_solution,      // limits hit before any incumbent was found
};

/// One entry per incumbent/bound improvement (drives Fig. 10).
struct mip_trace_entry {
  double seconds = 0.0;
  double best_integer = 0.0;   // +inf until an incumbent exists
  double best_bound = 0.0;
  double relative_gap = 1.0;   // (incumbent - bound) / max(|incumbent|, 1)
};

struct mip_options {
  double time_limit_seconds = 60.0;
  long node_limit = 1000000;
  /// Stop when (incumbent - bound) / max(|incumbent|, 1) falls below this.
  double gap_tolerance = 1e-6;
  /// Stop when incumbent - bound falls below this. When the objective is
  /// known to live on a lattice (e.g. gamma*S + (1-gamma)*D with integral
  /// S, D), setting this to half the lattice step proves optimality early.
  double absolute_gap_tolerance = 1e-9;
  /// Caller's promise that every integer-feasible objective value is an
  /// integer multiple of this step (0 = no such structure). Node LP bounds
  /// are then rounded up to the next lattice point before pruning and
  /// ordering, which prunes subtrees whose fractional bound cannot reach a
  /// better lattice point than the incumbent. Purely bound strengthening:
  /// the incumbent set is unchanged, and results stay bit-identical across
  /// thread counts.
  double objective_lattice = 0.0;
  /// Optional integer-feasible warm start (checked, then used as incumbent).
  std::optional<std::vector<double>> warm_start;
  /// Run milp/presolve (bound tightening, fixed-variable substitution,
  /// redundant-row removal) before the root LP. The search then operates on
  /// the reduced model; variable indexing is preserved, so no postsolve is
  /// needed and `x` always matches the input model.
  bool presolve = true;
  /// Strong branching: at each branching node, probe up to this many of the
  /// most fractional candidates by solving iteration-capped LPs of both
  /// children, then branch where the weaker child bound improves most.
  /// Probes that prove a child infeasible or past the incumbent conclude
  /// that subtree on the spot, so it is never queued. Fewer, better nodes
  /// at a higher per-node cost; 0 restores plain most-fractional branching.
  /// Probing is part of the node's pure function, so determinism across
  /// thread counts is unaffected.
  int strong_branching_candidates = 4;
  /// Simplex iteration cap per strong-branching probe LP. Probes that hit
  /// the cap are inconclusive and fall back to the parent bound.
  long strong_branching_iterations = 150;
  /// Worker threads for node LP solves (1 = fully serial). Results are
  /// bit-identical for any value; see the file comment.
  int threads = 1;
  lp_options lp;
  /// If set, called whenever the incumbent or bound improves.
  std::function<void(double seconds, double incumbent, double bound)>
      progress = nullptr;
  /// Convergence milestones are *events*, not a stored log: this callback
  /// receives one entry per incumbent/bound improvement plus a terminal
  /// entry summarizing the final state. Callers that want the historical
  /// trace vector accumulate it here (see core/label_mip).
  std::function<void(const mip_trace_entry&)> on_trace = nullptr;
};

struct mip_result {
  mip_status status = mip_status::no_solution;
  std::vector<double> x;       // best incumbent (empty if none)
  double objective = 0.0;      // incumbent objective
  double best_bound = 0.0;     // global dual bound at termination
  double relative_gap = 1.0;
  long nodes_explored = 0;
  double seconds = 0.0;
};

/// Solve `m` (minimization). Integer variables must have finite bounds.
[[nodiscard]] mip_result solve_mip(const model& m,
                                   const mip_options& options = {});

/// Search effort as the "milp.bnb.*" counters count it.
struct solve_effort {
  std::uint64_t nodes_explored = 0;
  std::uint64_t lp_iterations = 0;       // node and probe LP iterations
  std::uint64_t dive_lp_iterations = 0;  // diving heuristic LP iterations
  std::uint64_t incumbents = 0;          // accepted incumbent improvements
  std::uint64_t rounds = 0;              // synchronous search rounds
  std::uint64_t solves = 0;
};

/// Adds `effort` to the "milp.bnb.*" counters; no-op when metrics are
/// disabled. solve_mip publishes each solve's effort on every exit path. A
/// caller that settles a model without solving it publishes a zero effort,
/// so the same counters exist whichever path ran.
void publish_solve_effort(const solve_effort& effort);

}  // namespace compact::milp
