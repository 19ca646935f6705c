#include "xbar/evaluate.hpp"

#include "xbar/partitioned.hpp"

namespace compact::xbar {

std::vector<bool> reachable_rows(const crossbar& design,
                                 const std::vector<bool>& assignment) {
  check(design.input_row() >= 0, "evaluate: design has no input row");
  return std::move(reachable_rows({&design, 1}, {}, 0, assignment)[0]);
}

std::vector<bool> evaluate(const crossbar& design,
                           const std::vector<bool>& assignment) {
  const std::vector<bool> rows = reachable_rows(design, assignment);
  std::vector<bool> result;
  result.reserve(design.outputs().size() + design.constant_outputs().size());
  for (const output_port& o : design.outputs())
    result.push_back(rows[static_cast<std::size_t>(o.row)]);
  for (const auto& constant : design.constant_outputs())
    result.push_back(constant.second);
  return result;
}

bool evaluate_output(const crossbar& design,
                     const std::vector<bool>& assignment,
                     const std::string& output_name) {
  const std::vector<bool> rows = reachable_rows(design, assignment);
  for (const output_port& o : design.outputs())
    if (o.name == output_name) return rows[static_cast<std::size_t>(o.row)];
  for (const auto& [name, value] : design.constant_outputs())
    if (name == output_name) return value;
  throw error("evaluate_output: unknown output " + output_name);
}

}  // namespace compact::xbar
