#include "analog/wire_aware.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace compact::analog {
namespace {

/// Sparse symmetric conductance system in adjacency form, solved by
/// Jacobi-preconditioned conjugate gradients.
class conductance_network {
 public:
  explicit conductance_network(int nodes)
      : diagonal_(static_cast<std::size_t>(nodes), 0.0),
        adjacency_(static_cast<std::size_t>(nodes)),
        rhs_(static_cast<std::size_t>(nodes), 0.0) {}

  [[nodiscard]] int size() const {
    return static_cast<int>(diagonal_.size());
  }

  /// Conductance between two unknown nodes.
  void stamp(int a, int b, double conductance) {
    diagonal_[static_cast<std::size_t>(a)] += conductance;
    diagonal_[static_cast<std::size_t>(b)] += conductance;
    adjacency_[static_cast<std::size_t>(a)].emplace_back(b, conductance);
    adjacency_[static_cast<std::size_t>(b)].emplace_back(a, conductance);
  }

  /// Conductance from node `a` to a fixed-voltage terminal.
  void stamp_to_source(int a, double conductance, double voltage) {
    diagonal_[static_cast<std::size_t>(a)] += conductance;
    rhs_[static_cast<std::size_t>(a)] += conductance * voltage;
  }

  /// G v = rhs via CG. Returns (iterations, converged).
  std::pair<int, bool> solve(std::vector<double>& v, double tolerance,
                             int max_iterations) const {
    const std::size_t n = diagonal_.size();
    v.assign(n, 0.0);
    std::vector<double> r = rhs_;
    std::vector<double> z(n), p(n), ap(n);

    auto apply = [&](const std::vector<double>& x, std::vector<double>& out) {
      for (std::size_t i = 0; i < n; ++i) {
        double sum = diagonal_[i] * x[i];
        for (const auto& [j, g] : adjacency_[i])
          sum -= g * x[static_cast<std::size_t>(j)];
        out[i] = sum;
      }
    };
    auto precondition = [&](const std::vector<double>& x,
                            std::vector<double>& out) {
      for (std::size_t i = 0; i < n; ++i)
        out[i] = diagonal_[i] > 0.0 ? x[i] / diagonal_[i] : x[i];
    };
    auto dot = [&](const std::vector<double>& a, const std::vector<double>& b) {
      double sum = 0.0;
      for (std::size_t i = 0; i < n; ++i) sum += a[i] * b[i];
      return sum;
    };

    precondition(r, z);
    p = z;
    double rz = dot(r, z);
    const double rhs_norm = std::sqrt(std::max(dot(rhs_, rhs_), 1e-300));

    for (int it = 0; it < max_iterations; ++it) {
      if (std::sqrt(dot(r, r)) <= tolerance * rhs_norm) return {it, true};
      apply(p, ap);
      const double pap = dot(p, ap);
      if (pap <= 0.0) return {it, false};  // numerical breakdown
      const double alpha = rz / pap;
      for (std::size_t i = 0; i < n; ++i) {
        v[i] += alpha * p[i];
        r[i] -= alpha * ap[i];
      }
      precondition(r, z);
      const double rz_next = dot(r, z);
      const double beta = rz_next / rz;
      rz = rz_next;
      for (std::size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
    }
    return {max_iterations, false};
  }

 private:
  std::vector<double> diagonal_;
  std::vector<std::vector<std::pair<int, double>>> adjacency_;
  std::vector<double> rhs_;
};

}  // namespace

wire_aware_result simulate_wire_aware(const xbar::crossbar& design,
                                      const std::vector<bool>& assignment,
                                      const wire_model& model) {
  check(design.input_row() >= 0, "wire_aware: design has no input row");
  check(design.columns() >= 1, "wire_aware: design has no columns");
  check(model.r_wire > 0.0, "wire_aware: r_wire must be positive "
                            "(use analog::simulate for the ideal model)");
  const int rows = design.rows();
  const int cols = design.columns();

  // Node numbering: top layer (wordlines) T(r,c) = r*cols + c;
  // bottom layer (bitlines) B(r,c) = rows*cols + r*cols + c.
  const int top_base = 0;
  const int bottom_base = rows * cols;
  auto top = [&](int r, int c) { return top_base + r * cols + c; };
  auto bottom = [&](int r, int c) { return bottom_base + r * cols + c; };

  conductance_network net(2 * rows * cols);
  const double g_wire = 1.0 / model.r_wire;

  // Wire segments along wordlines and bitlines.
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c + 1 < cols; ++c) net.stamp(top(r, c), top(r, c + 1), g_wire);
  for (int c = 0; c < cols; ++c)
    for (int r = 0; r + 1 < rows; ++r)
      net.stamp(bottom(r, c), bottom(r + 1, c), g_wire);

  // Junction devices between the layers: every junction is one, a device
  // or not.
  design.for_each_junction([&](int r, int c, const xbar::device& d) {
    net.stamp(top(r, c), bottom(r, c),
              d.conducts(assignment) ? 1.0 / model.device.r_on
                                     : 1.0 / model.device.r_off);
  });

  // Drive the input wordline at its column-0 end through a tiny source
  // resistance (keeps the system SPD without node elimination).
  const double g_source = 1.0 / std::max(model.r_wire * 1e-3, 1e-6);
  net.stamp_to_source(top(design.input_row(), 0), g_source,
                      model.device.v_in);

  // Sensing resistors at every output wordline's far end.
  for (const xbar::output_port& o : design.outputs())
    net.stamp_to_source(top(o.row, cols - 1), 1.0 / model.device.r_sense,
                        0.0);

  std::vector<double> v;
  const auto [iterations, converged] =
      net.solve(v, model.cg_tolerance, model.cg_max_iterations);

  wire_aware_result result;
  result.cg_iterations = iterations;
  result.converged = converged;
  for (const xbar::output_port& o : design.outputs()) {
    const double voltage = v[static_cast<std::size_t>(top(o.row, cols - 1))];
    result.output_voltages.push_back(voltage);
    result.output_logic.push_back(voltage >=
                                  model.device.threshold * model.device.v_in);
  }
  return result;
}

double worst_ir_drop(const xbar::crossbar& design, int variable_count,
                     const wire_model& model, int samples,
                     std::uint64_t seed) {
  rng random(seed);
  double worst = 0.0;
  std::vector<bool> assignment(static_cast<std::size_t>(variable_count));
  for (int s = 0; s < samples; ++s) {
    for (int i = 0; i < variable_count; ++i)
      assignment[static_cast<std::size_t>(i)] = random.next_bool();
    const analog_result ideal = simulate(design, assignment, model.device);
    const wire_aware_result wired =
        simulate_wire_aware(design, assignment, model);
    for (std::size_t o = 0; o < ideal.output_voltages.size(); ++o)
      worst = std::max(worst, ideal.output_voltages[o] -
                                  wired.output_voltages[o]);
  }
  return worst;
}

}  // namespace compact::analog
