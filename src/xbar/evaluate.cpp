#include "xbar/evaluate.hpp"

#include <queue>

namespace compact::xbar {

std::vector<bool> reachable_rows(const crossbar& design,
                                 const std::vector<bool>& assignment) {
  check(design.input_row() >= 0, "evaluate: design has no input row");
  check_assignment(design, assignment.size());
  const int rows = design.rows();
  const int cols = design.columns();

  std::vector<bool> row_seen(static_cast<std::size_t>(rows), false);
  std::vector<bool> col_seen(static_cast<std::size_t>(cols), false);
  // Frontier alternates between wordlines and bitlines.
  std::queue<std::pair<bool, int>> frontier;  // (is_row, index)
  frontier.emplace(true, design.input_row());
  row_seen[static_cast<std::size_t>(design.input_row())] = true;

  while (!frontier.empty()) {
    const auto [is_row, index] = frontier.front();
    frontier.pop();
    if (is_row) {
      for (int c = 0; c < cols; ++c) {
        if (col_seen[static_cast<std::size_t>(c)]) continue;
        if (design.at(index, c).conducts(assignment)) {
          col_seen[static_cast<std::size_t>(c)] = true;
          frontier.emplace(false, c);
        }
      }
    } else {
      for (int r = 0; r < rows; ++r) {
        if (row_seen[static_cast<std::size_t>(r)]) continue;
        if (design.at(r, index).conducts(assignment)) {
          row_seen[static_cast<std::size_t>(r)] = true;
          frontier.emplace(true, r);
        }
      }
    }
  }
  return row_seen;
}

std::vector<bool> evaluate(const crossbar& design,
                           const std::vector<bool>& assignment) {
  const std::vector<bool> rows = reachable_rows(design, assignment);
  std::vector<bool> result;
  result.reserve(design.outputs().size() + design.constant_outputs().size());
  for (const output_port& o : design.outputs())
    result.push_back(rows[static_cast<std::size_t>(o.row)]);
  for (const auto& [name, value] : design.constant_outputs()) {
    (void)name;
    result.push_back(value);
  }
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
