#include "milp/presolve.hpp"

#include <algorithm>
#include <cmath>

#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace compact::milp {
namespace {

struct work_row {
  std::vector<linear_term> terms;
  relation rel = relation::less_equal;
  double rhs = 0.0;
  std::string name;
  bool removed = false;
};

/// Contribution of one term to a row's minimum/maximum activity.
inline double min_contribution(const linear_term& t, const std::vector<double>& lo,
                               const std::vector<double>& hi) {
  return t.coefficient > 0.0 ? t.coefficient * lo[static_cast<std::size_t>(t.variable)]
                             : t.coefficient * hi[static_cast<std::size_t>(t.variable)];
}
inline double max_contribution(const linear_term& t, const std::vector<double>& lo,
                               const std::vector<double>& hi) {
  return t.coefficient > 0.0 ? t.coefficient * hi[static_cast<std::size_t>(t.variable)]
                             : t.coefficient * lo[static_cast<std::size_t>(t.variable)];
}

}  // namespace

presolve_result presolve_model(const model& m, const presolve_options& options) {
  const trace_span span("milp_presolve", "milp");
  presolve_result result;
  presolve_stats& stats = result.stats;
  const std::size_t n = m.variable_count();

  std::vector<double> lo(n);
  std::vector<double> hi(n);
  for (std::size_t j = 0; j < n; ++j) {
    lo[j] = m.var(static_cast<int>(j)).lower;
    hi[j] = m.var(static_cast<int>(j)).upper;
    // Integer bounds round inward once up front.
    if (m.var(static_cast<int>(j)).is_integer) {
      if (std::isfinite(lo[j])) lo[j] = std::ceil(lo[j] - 1e-6);
      if (std::isfinite(hi[j])) hi[j] = std::floor(hi[j] + 1e-6);
    }
  }

  std::vector<work_row> rows;
  rows.reserve(m.constraint_count());
  for (const constraint& c : m.constraints()) {
    work_row r;
    r.rel = c.rel;
    r.rhs = c.rhs;
    r.name = c.name;
    r.terms.reserve(c.terms.size());
    for (const linear_term& t : c.terms) {
      if (t.coefficient == 0.0) {
        ++stats.terms_removed;  // contributes nothing, drop immediately
        continue;
      }
      r.terms.push_back(t);
    }
    rows.push_back(std::move(r));
  }

  const double ftol = options.feasibility_tolerance;
  std::vector<bool> substituted(n, false);

  // Tighten a variable bound; returns true when it strictly improved.
  auto tighten_upper = [&](int j, double value) {
    const auto sj = static_cast<std::size_t>(j);
    if (m.var(j).is_integer) value = std::floor(value + 1e-6);
    if (value >= hi[sj] - 1e-7) return false;
    hi[sj] = value;
    ++stats.bounds_tightened;
    return true;
  };
  auto tighten_lower = [&](int j, double value) {
    const auto sj = static_cast<std::size_t>(j);
    if (m.var(j).is_integer) value = std::ceil(value - 1e-6);
    if (value <= lo[sj] + 1e-7) return false;
    lo[sj] = value;
    ++stats.bounds_tightened;
    return true;
  };

  bool changed = true;
  while (changed && stats.rounds < options.max_rounds &&
         !stats.proved_infeasible) {
    changed = false;
    ++stats.rounds;

    for (work_row& r : rows) {
      if (stats.proved_infeasible) break;
      if (r.removed) continue;

      // Substitute variables fixed since the row was last visited.
      std::erase_if(r.terms, [&](const linear_term& t) {
        const auto sj = static_cast<std::size_t>(t.variable);
        if (!substituted[sj]) return false;
        r.rhs -= t.coefficient * lo[sj];
        ++stats.terms_removed;
        return true;
      });

      // Activity bounds with explicit infinity accounting.
      double min_sum = 0.0;
      double max_sum = 0.0;
      int min_inf = 0;
      int max_inf = 0;
      for (const linear_term& t : r.terms) {
        const double mn = min_contribution(t, lo, hi);
        const double mx = max_contribution(t, lo, hi);
        if (std::isfinite(mn)) min_sum += mn; else ++min_inf;
        if (std::isfinite(mx)) max_sum += mx; else ++max_inf;
      }
      const double min_activity = min_inf > 0 ? -infinity : min_sum;
      const double max_activity = max_inf > 0 ? infinity : max_sum;

      // Infeasibility and redundancy from the activity range alone.
      const bool need_le = r.rel != relation::greater_equal;
      const bool need_ge = r.rel != relation::less_equal;
      if ((need_le && min_activity > r.rhs + ftol) ||
          (need_ge && max_activity < r.rhs - ftol)) {
        stats.proved_infeasible = true;
        break;
      }
      const bool le_redundant = !need_le || max_activity <= r.rhs + 1e-9;
      const bool ge_redundant = !need_ge || min_activity >= r.rhs - 1e-9;
      if (r.terms.empty() || (le_redundant && ge_redundant)) {
        r.removed = true;
        ++stats.rows_removed;
        changed = true;
        continue;
      }

      // Bound tightening: the row's residual after the other terms take
      // their extreme values implies a bound on each variable.
      for (const linear_term& t : r.terms) {
        const int j = t.variable;
        const auto sj = static_cast<std::size_t>(j);
        const double a = t.coefficient;
        if (need_le) {
          const double own_min = min_contribution(t, lo, hi);
          const bool others_finite =
              min_inf == 0 || (min_inf == 1 && !std::isfinite(own_min));
          if (others_finite) {
            const double others = std::isfinite(own_min) ? min_sum - own_min
                                                         : min_sum;
            const double bound = (r.rhs - others) / a;
            changed |= a > 0.0 ? tighten_upper(j, bound)
                               : tighten_lower(j, bound);
          }
        }
        if (need_ge) {
          const double own_max = max_contribution(t, lo, hi);
          const bool others_finite =
              max_inf == 0 || (max_inf == 1 && !std::isfinite(own_max));
          if (others_finite) {
            const double others = std::isfinite(own_max) ? max_sum - own_max
                                                         : max_sum;
            const double bound = (r.rhs - others) / a;
            changed |= a > 0.0 ? tighten_lower(j, bound)
                               : tighten_upper(j, bound);
          }
        }
        if (lo[sj] > hi[sj] + ftol) {
          stats.proved_infeasible = true;
          break;
        }
      }
    }

    // Newly fixed variables get substituted on the next sweep; make sure a
    // final sweep happens even when nothing else changed this round.
    for (std::size_t j = 0; j < n && !stats.proved_infeasible; ++j) {
      if (substituted[j] || !(hi[j] - lo[j] <= 1e-12)) continue;
      substituted[j] = true;
      ++stats.variables_fixed;
      changed = true;
    }
  }

  if (metrics_enabled()) {
    metrics_registry& registry = global_metrics();
    static metric_counter& runs = registry.counter("milp.presolve.runs");
    static metric_counter& tightened =
        registry.counter("milp.presolve.bounds_tightened");
    static metric_counter& fixed =
        registry.counter("milp.presolve.variables_fixed");
    static metric_counter& rows_removed =
        registry.counter("milp.presolve.rows_removed");
    runs.increment();
    tightened.add(stats.bounds_tightened);
    fixed.add(stats.variables_fixed);
    rows_removed.add(stats.rows_removed);
    if (stats.proved_infeasible) {
      static metric_counter& infeasible =
          registry.counter("milp.presolve.proved_infeasible");
      infeasible.increment();
    }
  }
  if (stats.proved_infeasible) return result;

  // Rebuild: identical variable order, tightened bounds, surviving rows.
  for (std::size_t j = 0; j < n; ++j) {
    const variable& v = m.var(static_cast<int>(j));
    const int idx = result.reduced.add_variable(lo[j], hi[j], v.objective,
                                                v.is_integer, v.name);
    result.reduced.set_branch_priority(idx, v.branch_priority);
  }
  for (work_row& r : rows) {
    if (r.removed) continue;
    // Substitutions discovered on the last round may not have been folded in.
    std::erase_if(r.terms, [&](const linear_term& t) {
      const auto sj = static_cast<std::size_t>(t.variable);
      if (!substituted[sj]) return false;
      r.rhs -= t.coefficient * lo[sj];
      ++stats.terms_removed;
      return true;
    });
    if (r.terms.empty()) {
      // A row emptied by last-round substitutions never went through the
      // activity check; 0 REL rhs must still hold or the model is infeasible.
      const bool ok =
          (r.rel == relation::less_equal && 0.0 <= r.rhs + ftol) ||
          (r.rel == relation::greater_equal && 0.0 >= r.rhs - ftol) ||
          (r.rel == relation::equal && std::abs(r.rhs) <= ftol);
      if (!ok) {
        stats.proved_infeasible = true;
        return result;
      }
      ++stats.rows_removed;
      continue;
    }
    result.reduced.add_constraint(std::move(r.terms), r.rel, r.rhs,
                                  std::move(r.name));
  }
  return result;
}

}  // namespace compact::milp
