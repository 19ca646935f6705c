#include "milp/simplex.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/memtrack.hpp"

namespace compact::milp {

struct lp_matrix {
  int n = 0;  // structural columns
  int m = 0;  // rows, one logical column each
  std::vector<int> col_start, col_row;
  std::vector<double> col_value;
  std::vector<int> row_start, row_col;
  std::vector<double> row_value;
  std::vector<double> cost;          // structural objective
  std::vector<double> lower, upper;  // n structural, then m logical bounds
};

std::shared_ptr<const lp_matrix> make_lp_matrix(const model& mdl) {
  auto a = std::make_shared<lp_matrix>();
  const int n = static_cast<int>(mdl.variable_count());
  const int m = static_cast<int>(mdl.constraint_count());
  a->n = n;
  a->m = m;
  a->cost.resize(static_cast<std::size_t>(n));
  a->lower.resize(static_cast<std::size_t>(n + m));
  a->upper.resize(static_cast<std::size_t>(n + m));
  for (int j = 0; j < n; ++j) {
    const variable& v = mdl.var(j);
    a->cost[j] = v.objective;
    a->lower[j] = v.lower;
    a->upper[j] = v.upper;
  }
  std::vector<int> col_count(static_cast<std::size_t>(n) + 1, 0);
  a->row_start.assign(static_cast<std::size_t>(m) + 1, 0);
  for (int i = 0; i < m; ++i) {
    const constraint& c = mdl.constraints()[static_cast<std::size_t>(i)];
    for (const linear_term& t : c.terms) {
      if (t.coefficient == 0.0) continue;
      a->row_col.push_back(t.variable);
      a->row_value.push_back(t.coefficient);
      ++col_count[static_cast<std::size_t>(t.variable) + 1];
    }
    a->row_start[i + 1] = static_cast<int>(a->row_col.size());
    // The logical is r_i = -a_i x, so a_i x <= rhs reads r_i >= -rhs.
    a->lower[n + i] = c.rel == relation::greater_equal ? -infinity : -c.rhs;
    a->upper[n + i] = c.rel == relation::less_equal ? infinity : -c.rhs;
  }
  for (int j = 0; j < n; ++j) col_count[j + 1] += col_count[j];
  a->col_start = col_count;
  a->col_row.resize(a->row_col.size());
  a->col_value.resize(a->row_col.size());
  std::vector<int> fill(col_count.begin(), col_count.end() - 1);
  for (int i = 0; i < m; ++i)
    for (int k = a->row_start[i]; k < a->row_start[i + 1]; ++k) {
      const int slot = fill[a->row_col[k]]++;
      a->col_row[slot] = i;
      a->col_value[slot] = a->row_value[k];
    }
  return a;
}

namespace {

// Column status bytes of an lp_basis.
constexpr std::uint8_t basic = 0;
constexpr std::uint8_t at_lower = 1;
constexpr std::uint8_t at_upper = 2;
constexpr std::uint8_t at_zero = 3;  // free nonbasic column, held at 0

/// Pivots between reinversions. Fixed: it shapes the arithmetic, so it must
/// not depend on anything but the pivot sequence.
constexpr int refactor_period = 64;
constexpr double primal_tolerance = 1e-9;
constexpr double drop_tolerance = 1e-13;      // eta entries below are dropped
constexpr double singular_tolerance = 1e-9;   // smallest acceptable pivot
constexpr double check_tolerance = 1e-5;      // model check of an optimum
constexpr double dual_check_tolerance = 1e-6; // reduced-cost sign check
constexpr double min_weight = 1e-4;           // floor of a steepest-edge weight

enum class outcome { optimal, infeasible, unbounded, limit, dual_infeasible };

}  // namespace

struct lp_engine::state {
  std::shared_ptr<const lp_matrix> a;
  int n = 0;
  int m = 0;
  std::vector<double> lower, upper, cost;  // n + m columns
  std::vector<std::uint8_t> status;
  std::vector<int> head;                   // basic column of each row
  std::vector<double> x, d;                // values and reduced costs
  std::vector<double> violation;           // bound violation of each row
  // Dual steepest-edge weights ||e_i^T B^-1||^2 of the basic rows: exact
  // (1) for the slack basis, reset to 1 when a basis is loaded, updated
  // after every pivot and kept across reinversions.
  std::vector<double> weight;
  // Product-form inverse: B^-1 = E_k ... E_1, eta t pivoting on eta_row[t].
  std::vector<int> eta_row, eta_start, eta_index;
  std::vector<double> eta_pivot, eta_value;
  int updates = 0;  // etas appended by pivots since the last reinversion
  // Scratch, all-zero between uses.
  std::vector<double> column, row, alpha, tau;
  std::vector<std::uint8_t> mark;
  std::vector<int> touched;

  explicit state(std::shared_ptr<const lp_matrix> matrix)
      : a(std::move(matrix)), n(a->n), m(a->m) {
    const auto cols = static_cast<std::size_t>(n + m);
    lower = a->lower;
    upper = a->upper;
    cost.assign(cols, 0.0);
    std::copy(a->cost.begin(), a->cost.end(), cost.begin());
    status.assign(cols, at_lower);
    head.resize(static_cast<std::size_t>(m));
    for (int i = 0; i < m; ++i) {
      head[i] = n + i;
      status[n + i] = basic;
    }
    x.assign(cols, 0.0);
    d.assign(cols, 0.0);
    violation.assign(static_cast<std::size_t>(m), 0.0);
    weight.assign(static_cast<std::size_t>(m), 1.0);
    eta_start.assign(1, 0);
    column.assign(static_cast<std::size_t>(m), 0.0);
    row.assign(static_cast<std::size_t>(m), 0.0);
    tau.assign(static_cast<std::size_t>(m), 0.0);
    alpha.assign(cols, 0.0);
    mark.assign(cols, 0);
  }

  [[nodiscard]] std::uint64_t bytes() const {
    const auto cols = static_cast<std::uint64_t>(n + m);
    const auto rows = static_cast<std::uint64_t>(m);
    const auto etas = static_cast<std::uint64_t>(eta_row.capacity());
    return cols * (6 * sizeof(double) + 2) +
           rows * (5 * sizeof(double) + 2 * sizeof(int)) +
           etas * (2 * sizeof(int) + sizeof(double)) +
           static_cast<std::uint64_t>(eta_index.capacity()) *
               (sizeof(int) + sizeof(double));
  }

  [[nodiscard]] double nonbasic_value(int j) const {
    switch (status[j]) {
      case at_lower:
        return lower[j];
      case at_upper:
        return upper[j];
      default:
        return 0.0;
    }
  }

  // ---- Product-form inverse. ----------------------------------------------

  /// v <- B^-1 v.
  void ftran(std::vector<double>& v) const {
    const int etas = static_cast<int>(eta_row.size());
    for (int t = 0; t < etas; ++t) {
      const int r = eta_row[t];
      if (v[r] == 0.0) continue;
      const double value = v[r] / eta_pivot[t];
      v[r] = value;
      for (int k = eta_start[t]; k < eta_start[t + 1]; ++k)
        v[eta_index[k]] -= eta_value[k] * value;
    }
  }

  /// v <- B^-T v.
  void btran(std::vector<double>& v) const {
    for (int t = static_cast<int>(eta_row.size()) - 1; t >= 0; --t) {
      const int r = eta_row[t];
      double s = v[r];
      for (int k = eta_start[t]; k < eta_start[t + 1]; ++k)
        s -= eta_value[k] * v[eta_index[k]];
      v[r] = s / eta_pivot[t];
    }
  }

  /// Eta of a transformed column held densely in `v` (zeroed on return).
  void push_eta(std::vector<double>& v, int r) {
    eta_row.push_back(r);
    eta_pivot.push_back(v[r]);
    v[r] = 0.0;
    for (int i = 0; i < m; ++i) {
      if (v[i] == 0.0) continue;
      if (std::abs(v[i]) > drop_tolerance) {
        eta_index.push_back(i);
        eta_value.push_back(v[i]);
      }
      v[i] = 0.0;
    }
    eta_start.push_back(static_cast<int>(eta_index.size()));
  }

  /// Eta of structural column j untouched by the earlier etas.
  void push_column_eta(int j, int r) {
    eta_row.push_back(r);
    double pivot = 0.0;
    for (int k = a->col_start[j]; k < a->col_start[j + 1]; ++k) {
      if (a->col_row[k] == r) {
        pivot = a->col_value[k];
      } else {
        eta_index.push_back(a->col_row[k]);
        eta_value.push_back(a->col_value[k]);
      }
    }
    eta_pivot.push_back(pivot);
    eta_start.push_back(static_cast<int>(eta_index.size()));
  }

  /// Scatter column j (structural or logical) into `v`.
  void scatter(int j, std::vector<double>& v) const {
    if (j >= n) {
      v[j - n] += 1.0;
      return;
    }
    for (int k = a->col_start[j]; k < a->col_start[j + 1]; ++k)
      v[a->col_row[k]] += a->col_value[k];
  }

  /// Fresh factorization of the basis named by `status`. Basic logicals keep
  /// their own rows; the basic structurals cover the other rows, ordered so
  /// that only a few spike columns fill in. Rows left uncovered take their
  /// logical and columns left without a pivot leave the basis.
  void reinvert(bool keep_weights) {
    std::vector<double> saved_weight;
    if (keep_weights) {
      saved_weight.assign(static_cast<std::size_t>(n + m), 1.0);
      for (int i = 0; i < m; ++i) saved_weight[head[i]] = weight[i];
    }
    eta_row.clear();
    eta_pivot.clear();
    eta_start.assign(1, 0);
    eta_index.clear();
    eta_value.clear();
    updates = 0;

    std::vector<char> row_open(static_cast<std::size_t>(m), 1);
    std::vector<char> col_open(static_cast<std::size_t>(n), 0);
    std::vector<int> row_count(static_cast<std::size_t>(m), 0);
    std::vector<int> col_count(static_cast<std::size_t>(n), 0);
    std::vector<int> structurals;
    for (int i = 0; i < m; ++i)
      if (status[n + i] == basic) {
        row_open[i] = 0;
        head[i] = n + i;
      }
    for (int j = 0; j < n; ++j) {
      if (status[j] != basic) continue;
      structurals.push_back(j);
      col_open[j] = 1;
      for (int k = a->col_start[j]; k < a->col_start[j + 1]; ++k)
        if (row_open[a->col_row[k]]) {
          ++col_count[j];
          ++row_count[a->col_row[k]];
        }
    }

    // Column singletons first: each is the only open column left in its
    // row, so pivoted last (in reverse) its eta is its own column.
    std::vector<std::pair<int, int>> upper_part;  // (column, row)
    std::vector<int> queue;
    for (const int j : structurals)
      if (col_count[j] == 1) queue.push_back(j);
    for (std::size_t q = 0; q < queue.size(); ++q) {
      const int j = queue[q];
      if (!col_open[j] || col_count[j] != 1) continue;
      int i = -1;
      for (int k = a->col_start[j]; k < a->col_start[j + 1]; ++k)
        if (row_open[a->col_row[k]]) {
          i = a->col_row[k];
          break;
        }
      if (i < 0) continue;
      upper_part.emplace_back(j, i);
      col_open[j] = 0;
      row_open[i] = 0;
      for (int k = a->row_start[i]; k < a->row_start[i + 1]; ++k) {
        const int c = a->row_col[k];
        if (col_open[c] && --col_count[c] == 1) queue.push_back(c);
      }
    }

    // The rest, ordered as close to lower triangular as possible (after
    // Hellerman and Rarick): take a row singleton when one exists, else the
    // open row with the fewest open columns; pivot one of its columns there
    // and set the others aside as spikes. Every non-spike column is then
    // zero on all earlier pivot rows, so its eta is its own column. Only
    // the spikes are transformed, and only they fill in.
    // (A column singleton's only open row closes with it, so the other
    // rows' counts are still exact.)
    std::vector<int> open_rows;
    std::vector<int> singles;
    for (int i = 0; i < m; ++i)
      if (row_open[i]) open_rows.push_back(i);
    for (auto it = open_rows.rbegin(); it != open_rows.rend(); ++it)
      if (row_count[*it] == 1) singles.push_back(*it);
    std::vector<std::pair<int, int>> middle_part;  // (column, row)
    std::vector<int> spikes;
    auto remove_column = [&](int j) {
      col_open[j] = 0;
      for (int k = a->col_start[j]; k < a->col_start[j + 1]; ++k) {
        const int i = a->col_row[k];
        if (row_open[i] && --row_count[i] == 1) singles.push_back(i);
      }
    };
    for (;;) {
      int r = -1;
      while (!singles.empty() && r < 0) {
        const int i = singles.back();
        singles.pop_back();
        if (row_open[i] && row_count[i] == 1) r = i;
      }
      if (r < 0)
        for (const int i : open_rows)
          if (row_open[i] && row_count[i] > 0 &&
              (r < 0 || row_count[i] < row_count[r]))
            r = i;
      if (r < 0) break;
      int c = -1;
      double best = 0.0;
      for (int k = a->row_start[r]; k < a->row_start[r + 1]; ++k) {
        const int j = a->row_col[k];
        if (col_open[j] && std::abs(a->row_value[k]) > best) {
          best = std::abs(a->row_value[k]);
          c = j;
        }
      }
      row_open[r] = 0;
      for (int k = a->row_start[r]; k < a->row_start[r + 1]; ++k) {
        const int j = a->row_col[k];
        if (!col_open[j] || j == c) continue;
        spikes.push_back(j);
        remove_column(j);
      }
      remove_column(c);
      middle_part.emplace_back(c, r);
    }
    for (const auto& [j, i] : middle_part) {
      push_column_eta(j, i);
      head[i] = j;
    }
    std::vector<int> pattern;
    auto touch = [&](int i) {
      if (!mark[i]) {
        mark[i] = 1;
        pattern.push_back(i);
      }
    };
    for (const int j : spikes) {
      pattern.clear();
      for (int k = a->col_start[j]; k < a->col_start[j + 1]; ++k) {
        touch(a->col_row[k]);
        column[a->col_row[k]] += a->col_value[k];
      }
      for (int t = 0; t < static_cast<int>(eta_row.size()); ++t) {
        const int r = eta_row[t];
        if (column[r] == 0.0) continue;
        const double value = column[r] / eta_pivot[t];
        column[r] = value;
        for (int k = eta_start[t]; k < eta_start[t + 1]; ++k) {
          touch(eta_index[k]);
          column[eta_index[k]] -= eta_value[k] * value;
        }
      }
      int r = -1;
      for (const int i : pattern)
        if (row_open[i] && std::abs(column[i]) > singular_tolerance &&
            (r < 0 || std::abs(column[i]) > std::abs(column[r]) ||
             (std::abs(column[i]) == std::abs(column[r]) && i < r)))
          r = i;
      if (r >= 0) {
        eta_row.push_back(r);
        eta_pivot.push_back(column[r]);
      } else {
        status[j] = at_lower;  // singular: leaves the basis
      }
      for (const int i : pattern) {
        if (r >= 0 && i != r && std::abs(column[i]) > drop_tolerance) {
          eta_index.push_back(i);
          eta_value.push_back(column[i]);
        }
        column[i] = 0.0;
        mark[i] = 0;
      }
      if (r < 0) continue;
      eta_start.push_back(static_cast<int>(eta_index.size()));
      head[r] = j;
      row_open[r] = 0;
    }
    for (auto it = upper_part.rbegin(); it != upper_part.rend(); ++it) {
      push_column_eta(it->first, it->second);
      head[it->second] = it->first;
    }
    for (int i = 0; i < m; ++i) {
      if (row_open[i]) {
        head[i] = n + i;
        status[n + i] = basic;
      }
      weight[i] = keep_weights ? saved_weight[head[i]] : 1.0;
    }
  }

  // ---- Primal and dual values. --------------------------------------------

  /// Nonbasic columns at their bound values, basics from B x_B = -N x_N.
  void compute_primal() {
    for (int j = 0; j < n + m; ++j) {
      if (status[j] == basic) continue;
      x[j] = nonbasic_value(j);
      if (x[j] == 0.0) continue;
      if (j >= n) {
        column[j - n] -= x[j];
        continue;
      }
      for (int k = a->col_start[j]; k < a->col_start[j + 1]; ++k)
        column[a->col_row[k]] -= a->col_value[k] * x[j];
    }
    ftran(column);
    for (int i = 0; i < m; ++i) {
      x[head[i]] = column[i];
      column[i] = 0.0;
      update_violation(i);
    }
  }

  /// How far row i's basic column lies outside its bounds (0 within
  /// primal_tolerance).
  void update_violation(int i) {
    const int j = head[i];
    if (x[j] < lower[j] - primal_tolerance)
      violation[i] = lower[j] - x[j];
    else if (x[j] > upper[j] + primal_tolerance)
      violation[i] = x[j] - upper[j];
    else
      violation[i] = 0.0;
  }

  /// Reduced costs d = c - A^T y with y = B^-T c_B.
  void compute_dual() {
    for (int i = 0; i < m; ++i) row[i] = cost[head[i]];
    btran(row);
    for (int j = 0; j < n; ++j) {
      if (status[j] == basic) {
        d[j] = 0.0;
        continue;
      }
      double s = cost[j];
      for (int k = a->col_start[j]; k < a->col_start[j + 1]; ++k)
        s -= a->col_value[k] * row[a->col_row[k]];
      d[j] = s;
    }
    for (int i = 0; i < m; ++i) {
      d[n + i] = status[n + i] == basic ? 0.0 : cost[n + i] - row[i];
      row[i] = 0.0;
    }
  }

  /// Put every nonbasic column at the bound its reduced cost asks for.
  /// Boxed columns always can; returns false when a column with a missing
  /// bound has the wrong sign (the basis is not dual feasible).
  bool fix_statuses(double tolerance, long& flips) {
    bool feasible = true;
    for (int j = 0; j < n + m; ++j) {
      if (status[j] == basic) continue;
      const bool has_lower = std::isfinite(lower[j]);
      const bool has_upper = std::isfinite(upper[j]);
      std::uint8_t want = at_lower;
      if (lower[j] == upper[j]) {
        want = at_lower;
      } else if (has_lower && has_upper) {
        if (d[j] > tolerance)
          want = at_lower;
        else if (d[j] < -tolerance)
          want = at_upper;
        else
          want = status[j] == at_upper ? at_upper : at_lower;
        if (want != status[j] && status[j] != at_zero) ++flips;
      } else if (has_lower) {
        feasible = feasible && d[j] >= -tolerance;
      } else if (has_upper) {
        want = at_upper;
        feasible = feasible && d[j] <= tolerance;
      } else {
        want = at_zero;
        feasible = feasible && std::abs(d[j]) <= tolerance;
      }
      status[j] = want;
    }
    return feasible;
  }

  /// Recompute duals, statuses and primals from the current factorization.
  bool refresh(double tolerance, long& iterations) {
    compute_dual();
    const bool feasible = fix_statuses(tolerance, iterations);
    compute_primal();
    return feasible;
  }

  // ---- Dual simplex. --------------------------------------------------------

  /// Leaving row by dual steepest edge: the largest squared bound
  /// violation per weight (ties: lower column index). -1 when the basis is
  /// primal feasible.
  [[nodiscard]] int choose_row() const {
    int best = -1;
    double best_score = 0.0;
    for (int i = 0; i < m; ++i) {
      if (violation[i] == 0.0) continue;
      const double score = violation[i] * violation[i] / weight[i];
      if (score > best_score ||
          (score == best_score && head[i] < head[best])) {
        best_score = score;
        best = i;
      }
    }
    return best;
  }

  /// alpha_j = (B^-1 a_j)_r for the nonbasic columns, listed in `touched`.
  /// Leaves rho_r = e_r^T B^-1 in `tau` and returns its squared norm.
  double price_row(int r) {
    row[r] = 1.0;
    btran(row);
    double norm = 0.0;
    touched.clear();
    auto add = [&](int j, double value) {
      if (!mark[j]) {
        mark[j] = 1;
        touched.push_back(j);
      }
      alpha[j] += value;
    };
    for (int i = 0; i < m; ++i) {
      const double rho = row[i];
      if (rho == 0.0) continue;
      row[i] = 0.0;
      tau[i] = rho;
      norm += rho * rho;
      if (status[n + i] != basic) add(n + i, rho);
      for (int k = a->row_start[i]; k < a->row_start[i + 1]; ++k)
        if (status[a->row_col[k]] != basic)
          add(a->row_col[k], rho * a->row_value[k]);
    }
    return norm;
  }

  void clear_row() {
    for (const int j : touched) {
      alpha[j] = 0.0;
      mark[j] = 0;
    }
    touched.clear();
  }

  /// Harris two-pass ratio test for leaving row r. Returns the entering
  /// column or -1 when no column can restore the row (dual unbounded).
  [[nodiscard]] int choose_column(bool to_lower, const lp_options& options) const {
    const double tol_p = options.pivot_tolerance;
    const double tol_d = options.reduced_cost_tolerance;
    // A column qualifies when moving it off its bound pushes the leaving
    // variable toward the violated bound: a_t > 0 for at-lower columns,
    // a_t < 0 for at-upper ones, either sign for free ones.
    auto slope = [&](int j) { return to_lower ? -alpha[j] : alpha[j]; };
    auto eligible = [&](int j, double t) {
      if (lower[j] == upper[j]) return false;
      switch (status[j]) {
        case at_lower:
          return t > tol_p;
        case at_upper:
          return t < -tol_p;
        case at_zero:
          return std::abs(t) > tol_p;
        default:
          return false;
      }
    };
    auto slack = [&](int j) {  // the dual value the step consumes, >= 0
      switch (status[j]) {
        case at_lower:
          return d[j];
        case at_upper:
          return -d[j];
        default:
          return std::abs(d[j]);
      }
    };
    double bound = infinity;
    for (const int j : touched) {
      const double t = slope(j);
      if (!eligible(j, t)) continue;
      bound = std::min(bound, (slack(j) + tol_d) / std::abs(t));
    }
    if (!std::isfinite(bound)) return -1;
    int best = -1;
    double best_size = 0.0;
    for (const int j : touched) {
      const double t = slope(j);
      if (!eligible(j, t)) continue;
      if (std::max(slack(j), 0.0) / std::abs(t) > bound) continue;
      const double size = std::abs(t);
      if (size > best_size || (size == best_size && j < best)) {
        best_size = size;
        best = j;
      }
    }
    return best;
  }

  /// Dual simplex iterations from a dual feasible basis until the basis is
  /// primal feasible at a fresh factorization (optimal), a row proves the
  /// LP infeasible (again checked at a fresh factorization), or a limit.
  outcome run(const lp_options& options, clock::time_point deadline,
              long& iterations) {
    const double tol_d = options.reduced_cost_tolerance;
    bool fresh = updates == 0;
    auto refactor = [&] {
      reinvert(/*keep_weights=*/true);
      fresh = true;
      return refresh(tol_d, iterations);
    };
    for (;;) {
      if (updates >= refactor_period && !refactor())
        return outcome::dual_infeasible;
      const int r = choose_row();
      if (r < 0) {
        if (fresh) return outcome::optimal;
        if (!refactor()) return outcome::dual_infeasible;
        continue;
      }
      if (iterations >= options.max_iterations) return outcome::limit;
      if ((iterations & 15) == 0 && clock::now() >= deadline)
        return outcome::limit;

      const int leaving = head[r];
      const bool to_lower = x[leaving] < lower[leaving];
      const double target = to_lower ? lower[leaving] : upper[leaving];
      const double row_weight = price_row(r);
      const int q = choose_column(to_lower, options);
      if (q < 0) {
        clear_row();
        std::fill(tau.begin(), tau.end(), 0.0);
        if (fresh) return outcome::infeasible;
        if (!refactor()) return outcome::dual_infeasible;
        continue;
      }

      scatter(q, column);
      ftran(column);
      const double pivot = column[r];
      if (!fresh && std::abs(pivot - alpha[q]) >
                        1e-7 * (1.0 + std::abs(pivot))) {
        std::fill(column.begin(), column.end(), 0.0);
        std::fill(tau.begin(), tau.end(), 0.0);
        clear_row();
        if (!refactor()) return outcome::dual_infeasible;
        continue;
      }
      ftran(tau);

      // Dual step: the leaving column ends at `target` with reduced cost
      // -theta, which must have that bound's sign; a Harris step slightly
      // against it is clamped to zero.
      double theta = d[q] / alpha[q];
      if (to_lower ? theta > 0.0 : theta < 0.0) theta = 0.0;
      for (const int j : touched) d[j] -= theta * alpha[j];
      clear_row();
      d[q] = 0.0;
      d[leaving] = -theta;

      // Primal step: move q until the leaving column reaches its bound.
      const double delta = (x[leaving] - target) / pivot;
      x[q] += delta;
      x[leaving] = target;
      status[leaving] = to_lower || lower[leaving] == upper[leaving]
                            ? at_lower
                            : at_upper;
      status[q] = basic;
      head[r] = q;
      // Steepest-edge weights: w_i += ratio * (ratio * w_r - 2 tau_i) with
      // ratio = alpha_iq / alpha_rq, and w_r / alpha_rq^2 for the new row.
      for (int i = 0; i < m; ++i) {
        if (column[i] != 0.0 && i != r) {
          x[head[i]] -= delta * column[i];
          update_violation(i);
          const double ratio = column[i] / pivot;
          weight[i] = std::max(
              weight[i] + ratio * (ratio * row_weight - 2.0 * tau[i]),
              min_weight);
        }
        tau[i] = 0.0;
      }
      weight[r] = std::max(row_weight / (pivot * pivot), min_weight);
      update_violation(r);
      push_eta(column, r);
      ++updates;
      ++iterations;
      fresh = false;
    }
  }

  /// Dual phase 1 on the auxiliary problem: same matrix, every column boxed
  /// in [0,0], [0,1], [-1,0] or [-1,1] by which of its bounds are finite.
  /// Its optimal basis is dual feasible for the real bounds exactly when the
  /// real LP has one; otherwise a zero-cost solve tells an unbounded LP from
  /// an infeasible one.
  outcome phase_one(const lp_options& options, clock::time_point deadline,
                    long& iterations) {
    const double tol_d = options.reduced_cost_tolerance;
    std::vector<double> saved_lower = lower;
    std::vector<double> saved_upper = upper;
    for (int j = 0; j < n + m; ++j) {
      const bool has_lower = std::isfinite(lower[j]);
      const bool has_upper = std::isfinite(upper[j]);
      lower[j] = has_lower ? 0.0 : -1.0;
      upper[j] = has_upper ? 0.0 : 1.0;
    }
    refresh(tol_d, iterations);
    const outcome aux = run(options, deadline, iterations);
    lower.swap(saved_lower);
    upper.swap(saved_upper);
    if (aux != outcome::optimal) return outcome::limit;
    if (refresh(tol_d, iterations)) return outcome::optimal;

    std::vector<double> saved_cost(cost.size(), 0.0);
    cost.swap(saved_cost);
    refresh(tol_d, iterations);
    const outcome feasibility = run(options, deadline, iterations);
    cost.swap(saved_cost);
    if (feasibility == outcome::optimal) return outcome::unbounded;
    if (feasibility == outcome::infeasible) return outcome::infeasible;
    return outcome::limit;
  }

  /// The optimum claimed at a fresh factorization, checked against the model
  /// itself: bounds and rows within check_tolerance, and reduced-cost signs.
  [[nodiscard]] bool verify() const {
    for (int j = 0; j < n; ++j)
      if (x[j] < lower[j] - check_tolerance || x[j] > upper[j] + check_tolerance)
        return false;
    for (int i = 0; i < m; ++i) {
      double activity = 0.0;
      for (int k = a->row_start[i]; k < a->row_start[i + 1]; ++k)
        activity += a->row_value[k] * x[a->row_col[k]];
      if (activity < -upper[n + i] - check_tolerance ||
          activity > -lower[n + i] + check_tolerance)
        return false;
    }
    for (int j = 0; j < n + m; ++j) {
      if (status[j] == basic || lower[j] == upper[j]) continue;
      if ((status[j] == at_lower && d[j] < -dual_check_tolerance) ||
          (status[j] == at_upper && d[j] > dual_check_tolerance) ||
          (status[j] == at_zero && std::abs(d[j]) > dual_check_tolerance))
        return false;
    }
    return true;
  }

  outcome optimize(const lp_options& options, clock::time_point deadline,
                   long& iterations) {
    const double tol_d = options.reduced_cost_tolerance;
    for (int attempt = 0; attempt < 4; ++attempt) {
      if (!refresh(tol_d, iterations)) {
        const outcome found = phase_one(options, deadline, iterations);
        if (found != outcome::optimal) return found;
        continue;
      }
      const outcome result = run(options, deadline, iterations);
      if (result != outcome::dual_infeasible) return result;
    }
    return outcome::limit;
  }
};

lp_engine::lp_engine(std::shared_ptr<const lp_matrix> matrix)
    : s_(std::make_unique<state>(std::move(matrix))) {
  account();
}

lp_engine::~lp_engine() {
  if (accounted_ != 0) memtrack_account("milp.tableau").sub(accounted_);
}

lp_engine::lp_engine(const lp_engine& other)
    : s_(std::make_unique<state>(*other.s_)) {
  account();
}

lp_engine& lp_engine::operator=(const lp_engine& other) {
  if (this != &other) {
    *s_ = *other.s_;
    account();
  }
  return *this;
}

void lp_engine::account() {
  static mem_account& tableau_account = memtrack_account("milp.tableau");
  account_set(tableau_account, accounted_, s_->bytes());
}

double lp_engine::lower(int variable) const { return s_->lower.at(variable); }

double lp_engine::upper(int variable) const { return s_->upper.at(variable); }

void lp_engine::set_bounds(int variable, double lower, double upper) {
  check(variable >= 0 && variable < s_->n,
        "lp_engine: set_bounds on unknown variable");
  check(lower <= upper, "lp_engine: set_bounds with crossed bounds");
  s_->lower[variable] = lower;
  s_->upper[variable] = upper;
}

lp_basis lp_engine::basis() const { return s_->status; }

void lp_engine::load_basis(const lp_basis& basis) {
  check(basis.size() == s_->status.size(), "lp_engine: basis size mismatch");
  for (const std::uint8_t b : basis)
    check(b <= at_zero, "lp_engine: invalid basis status");
  s_->status = basis;
  s_->reinvert(/*keep_weights=*/false);
  account();
}

lp_result lp_engine::solve(const lp_options& options,
                           clock::time_point deadline) {
  if (std::isfinite(options.time_limit_seconds)) {
    const double seconds = std::clamp(options.time_limit_seconds, 0.0, 1e9);
    deadline = std::min(
        deadline, clock::now() + std::chrono::duration_cast<clock::duration>(
                                     std::chrono::duration<double>(seconds)));
  }
  lp_result result;
  const outcome found = s_->optimize(options, deadline, result.iterations);
  switch (found) {
    case outcome::optimal:
      result.status = s_->verify() ? lp_status::optimal
                                   : lp_status::iteration_limit;
      break;
    case outcome::infeasible:
      result.status = lp_status::infeasible;
      break;
    case outcome::unbounded:
      result.status = lp_status::unbounded;
      break;
    default:
      result.status = lp_status::iteration_limit;
      break;
  }
  if (result.status == lp_status::optimal) {
    const int n = s_->n;
    result.x.assign(s_->x.begin(), s_->x.begin() + n);
    for (int j = 0; j < n; ++j) result.objective += s_->a->cost[j] * result.x[j];
  }
  account();
  return result;
}

lp_result solve_lp(const model& m, const lp_options& options) {
  lp_engine engine(make_lp_matrix(m));
  return engine.solve(options);
}

}  // namespace compact::milp
