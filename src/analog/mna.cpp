#include "analog/mna.hpp"

#include "analog/linear.hpp"
#include "util/error.hpp"

namespace compact::analog {

analog_result simulate(const xbar::crossbar& design,
                       const std::vector<bool>& assignment,
                       const device_model& model) {
  check(design.input_row() >= 0, "analog: design has no input row");
  const int rows = design.rows();
  const int cols = design.columns();

  // Unknowns: all nanowire voltages except the driven input row.
  // Node numbering: wordline r -> r (input row excluded by remap),
  // bitline c -> rows + c, then compacted.
  const int total_nodes = rows + cols;
  std::vector<int> unknown_index(static_cast<std::size_t>(total_nodes), -1);
  int unknown_count = 0;
  for (int node = 0; node < total_nodes; ++node) {
    if (node == design.input_row()) continue;  // known voltage v_in
    unknown_index[static_cast<std::size_t>(node)] = unknown_count++;
  }

  matrix g(unknown_count, unknown_count);
  std::vector<double> rhs(static_cast<std::size_t>(unknown_count), 0.0);

  auto stamp = [&](int node_a, int node_b, double conductance) {
    const int ia = unknown_index[static_cast<std::size_t>(node_a)];
    const int ib = unknown_index[static_cast<std::size_t>(node_b)];
    if (ia >= 0) g.at(ia, ia) += conductance;
    if (ib >= 0) g.at(ib, ib) += conductance;
    if (ia >= 0 && ib >= 0) {
      g.at(ia, ib) -= conductance;
      g.at(ib, ia) -= conductance;
    } else if (ia >= 0) {
      rhs[static_cast<std::size_t>(ia)] += conductance * model.v_in;
    } else if (ib >= 0) {
      rhs[static_cast<std::size_t>(ib)] += conductance * model.v_in;
    }
  };

  // Junction resistors: every junction is one, a device or not.
  design.for_each_junction([&](int r, int c, const xbar::device& d) {
    stamp(r, rows + c,
          d.conducts(assignment) ? 1.0 / model.r_on : 1.0 / model.r_off);
  });

  // Sensing resistors to ground on output rows (ground contributes only to
  // the diagonal).
  for (const xbar::output_port& o : design.outputs()) {
    const int idx = unknown_index[static_cast<std::size_t>(o.row)];
    check(idx >= 0, "analog: the input row cannot also be an output");
    g.at(idx, idx) += 1.0 / model.r_sense;
  }

  std::vector<double> voltage =
      unknown_count > 0 ? solve_dense(std::move(g), std::move(rhs))
                        : std::vector<double>{};

  analog_result result;
  for (const xbar::output_port& o : design.outputs()) {
    const int idx = unknown_index[static_cast<std::size_t>(o.row)];
    const double v = voltage[static_cast<std::size_t>(idx)];
    result.output_voltages.push_back(v);
    result.output_logic.push_back(v >= model.threshold * model.v_in);
  }
  return result;
}

bool simulate_output(const xbar::crossbar& design,
                     const std::vector<bool>& assignment,
                     const std::string& output_name,
                     const device_model& model) {
  const analog_result result = simulate(design, assignment, model);
  for (std::size_t i = 0; i < design.outputs().size(); ++i)
    if (design.outputs()[i].name == output_name) return result.output_logic[i];
  for (const auto& [name, value] : design.constant_outputs())
    if (name == output_name) return value;
  throw error("simulate_output: unknown output " + output_name);
}

}  // namespace compact::analog
