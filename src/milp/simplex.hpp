// Bounded dual simplex over a sparse copy of the model (the LP engine).
//
// This is the LP engine underneath the branch-and-bound MIP solver; together
// they substitute for CPLEX in the paper's flow. Each constraint row i gets a
// logical column r_i = -a_i x whose bounds encode the row's sense and
// right-hand side, so the system reads A x + r = 0 with bounds on every
// column. The matrix is stored column- and row-wise (lp_matrix) and shared by
// every engine over one model. The basis inverse is kept in product form:
// a reinversion pivots the column singletons last and orders the rest after
// Hellerman and Rarick, so that only a few spike columns fill in, and every
// simplex pivot appends one eta column until the next reinversion.
//
// An lp_engine keeps its bounds, basis and factorization between solves.
// After a bound change the previous optimal basis stays dual feasible, so
// the dual simplex re-solves in a few pivots; branch-and-bound uses this for
// child nodes, strong-branching probes and dives. A cold start uses the
// slack basis with every column at the bound its cost sign picks. When that
// is not dual feasible (a column unbounded in its improving direction), an
// auxiliary boxed problem finds a dual feasible basis first.
//
// Pricing is dual steepest edge (the largest squared infeasibility per
// weight; weights restart at 1 when a basis is loaded) and the ratio test is
// Harris's two-pass rule, both breaking ties by the lower column index, so a
// solve is a deterministic function of (basis, bounds). `optimal` is only
// returned after a fresh factorization confirms it: the point satisfies the
// model within 1e-5 and every reduced cost has the sign its bound requires.
// Anything else is reported as iteration_limit, never as a bound.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "milp/model.hpp"

namespace compact::milp {

enum class lp_status { optimal, infeasible, unbounded, iteration_limit };

struct lp_options {
  long max_iterations = 200000;
  /// Wall-clock budget; iteration_limit status is returned on expiry.
  double time_limit_seconds = infinity;
  double reduced_cost_tolerance = 1e-7;
  double pivot_tolerance = 1e-7;
};

struct lp_result {
  lp_status status = lp_status::iteration_limit;
  double objective = 0.0;
  std::vector<double> x;  // one value per model variable (structural only)
  long iterations = 0;    // basis changes and bound flips
};

/// Immutable sparse copy of a model's LP data; see make_lp_matrix.
struct lp_matrix;

/// Column- and row-wise copy of `m`'s constraint matrix with its costs and
/// bounds (integrality is ignored). Engines over one model share it.
[[nodiscard]] std::shared_ptr<const lp_matrix> make_lp_matrix(const model& m);

/// A basis: one status byte per column, structurals first, then one logical
/// per constraint row. Exactly one byte per row marks a basic column.
using lp_basis = std::vector<std::uint8_t>;

/// Warm-startable LP engine. Copying an engine copies its bounds, basis and
/// factorization, which is how callers return to a solved state.
class lp_engine {
 public:
  using clock = std::chrono::steady_clock;

  /// Slack basis under the matrix's own bounds.
  explicit lp_engine(std::shared_ptr<const lp_matrix> matrix);
  ~lp_engine();
  lp_engine(const lp_engine& other);
  lp_engine& operator=(const lp_engine& other);

  [[nodiscard]] double lower(int variable) const;
  [[nodiscard]] double upper(int variable) const;
  /// Replace a structural variable's bounds; the basis is kept.
  void set_bounds(int variable, double lower, double upper);

  [[nodiscard]] lp_basis basis() const;
  /// Install `basis` with a fresh factorization (a singular basis is
  /// repaired by swapping in logical columns).
  void load_basis(const lp_basis& basis);

  /// Dual simplex from the current basis under the current bounds. Returns
  /// iteration_limit after options.max_iterations iterations, or once
  /// `deadline` or options.time_limit_seconds (from now) has passed.
  [[nodiscard]] lp_result solve(const lp_options& options,
                                clock::time_point deadline =
                                    clock::time_point::max());

 private:
  struct state;
  void account();

  std::unique_ptr<state> s_;
  std::uint64_t accounted_ = 0;  // bytes charged to mem.milp.tableau
};

/// Cold solve of the continuous relaxation of `m` (integrality flags are
/// ignored): a fresh engine from the slack basis.
[[nodiscard]] lp_result solve_lp(const model& m, const lp_options& options = {});

}  // namespace compact::milp
