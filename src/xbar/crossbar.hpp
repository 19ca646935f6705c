// Crossbar design representation for flow-based computing.
//
// A design assigns every memristor junction a literal: constant off ('0'),
// constant on ('1'), a variable, or a negated variable (Section II-C). One
// wordline is the input (driven with V_in during evaluation) and one or more
// wordlines are outputs (sensed through resistors). By the paper's
// convention the input is the bottom-most wordline and outputs are at the
// top.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace compact::xbar {

enum class literal_kind : std::uint8_t {
  off,      // never conducts ('0'); the default for unassigned junctions
  on,       // always conducts ('1'); used to bridge VH rows/columns
  positive, // conducts when the variable is 1
  negative, // conducts when the variable is 0
};

struct device {
  literal_kind kind = literal_kind::off;
  std::int32_t variable = -1;  // meaningful for positive/negative

  [[nodiscard]] bool conducts(const std::vector<bool>& assignment) const {
    switch (kind) {
      case literal_kind::off:
        return false;
      case literal_kind::on:
        return true;
      case literal_kind::positive:
        return assignment[static_cast<std::size_t>(variable)];
      case literal_kind::negative:
        return !assignment[static_cast<std::size_t>(variable)];
    }
    return false;
  }
};

struct output_port {
  int row = 0;
  std::string name;
};

class crossbar {
 public:
  crossbar(int rows, int columns);

  [[nodiscard]] int rows() const { return rows_; }
  [[nodiscard]] int columns() const { return columns_; }

  [[nodiscard]] const device& at(int row, int column) const;
  void set(int row, int column, device d);
  /// The highest variable index set on any junction so far (-1 when none),
  /// so evaluation checks an assignment's length once, not per device.
  /// Setting a junction again never lowers it.
  [[nodiscard]] int max_variable() const { return max_variable_; }
  void set_literal(int row, int column, int variable, bool positive);
  void set_on(int row, int column);

  /// The wordline driven with V_in.
  void set_input_row(int row);
  [[nodiscard]] int input_row() const { return input_row_; }
  /// Remove the input designation. Fragments of a partitioned design other
  /// than the one holding the '1' terminal are driven through bridges, not
  /// directly (xbar/partitioned).
  void clear_input_row() { input_row_ = -1; }

  /// Add a sensed output wordline. Constant outputs are modeled with
  /// add_constant_output (no row is consumed for constant 0).
  void add_output(int row, std::string name);
  void add_constant_output(bool value, std::string name);
  [[nodiscard]] const std::vector<output_port>& outputs() const {
    return outputs_;
  }
  [[nodiscard]] const std::vector<std::pair<std::string, bool>>&
  constant_outputs() const {
    return constant_outputs_;
  }

  // --- size metrics (Section III) ----------------------------------------
  [[nodiscard]] int semiperimeter() const { return rows_ + columns_; }
  [[nodiscard]] int max_dimension() const { return std::max(rows_, columns_); }
  [[nodiscard]] long long area() const {
    return static_cast<long long>(rows_) * columns_;
  }
  /// Number of junctions carrying a variable literal (the paper's power
  /// proxy for flow-based designs: memristors that must be programmed per
  /// evaluation).
  [[nodiscard]] int active_device_count() const;
  /// Evaluation latency in time steps: one per wordline to program the
  /// devices plus one to evaluate (Section VIII, via [33]).
  [[nodiscard]] int delay_steps() const { return rows_ + 1; }

  /// ASCII rendering (variables as letters when possible) for examples/docs.
  void print(std::ostream& os,
             const std::vector<std::string>& variable_names = {}) const;

 private:
  int rows_ = 0;
  int columns_ = 0;
  int input_row_ = -1;
  int max_variable_ = -1;
  std::vector<device> devices_;  // row-major
  std::vector<output_port> outputs_;
  std::vector<std::pair<std::string, bool>> constant_outputs_;
};

/// Throw compact::error, naming the variable, when a device of `design`
/// reads beyond an assignment of `bits` values. Evaluation calls it once per
/// assignment, so devices never index past one.
void check_assignment(const crossbar& design, std::size_t bits);

/// Rewrite every literal device's variable index through `mapping`
/// (mapping[old] = new). Used after synthesizing under a permuted BDD
/// variable order to express the design in the caller's input numbering.
[[nodiscard]] crossbar remap_variables(const crossbar& design,
                                       const std::vector<int>& mapping);

}  // namespace compact::xbar
