// Crossbar design representation for flow-based computing.
//
// A design programs some junctions with a literal: constant on ('1'), a
// variable or a negated variable; every other junction is off ('0')
// (Section II-C). With a device per BDD edge and a bridge per VH node, a
// design of S nanowires holds O(S) devices on an O(S^2) grid, so the
// crossbar stores its devices by (row, column), indexed by row and by
// column, and nothing per junction. One wordline is the input (driven with
// V_in during evaluation) and one or more are outputs (sensed through
// resistors): by the paper's convention the input at the bottom, outputs
// at the top.
#pragma once

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace compact::xbar {

enum class literal_kind : std::uint8_t {
  off,      // never conducts ('0'); every junction without a device
  on,       // always conducts ('1'); used to bridge VH rows/columns
  positive, // conducts when the variable is 1
  negative, // conducts when the variable is 0
};

struct device {
  literal_kind kind = literal_kind::off;
  std::int32_t variable = -1;  // meaningful for positive/negative

  /// Whether the device reads a variable: a positive or negative literal.
  [[nodiscard]] bool reads_variable() const {
    return kind == literal_kind::positive || kind == literal_kind::negative;
  }

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

/// A programmed junction: its device and where it sits.
struct placed_device {
  int row = 0;
  int column = 0;
  device literal;

  /// (row, column): devices order row-major by it.
  [[nodiscard]] std::pair<int, int> junction() const { return {row, column}; }
};

struct output_port {
  int row = 0;
  std::string name;
};

class crossbar {
 public:
  /// A rows x columns design with every junction off; it stores nothing
  /// per row or column until a device is placed.
  crossbar(int rows, int columns);
  /// The dimensions and ports of `shape` (not its devices), programmed with
  /// `devices`: the bulk path for whole designs. The devices come in any
  /// order; as if set() took them in list order, a later device on a
  /// junction replaces an earlier one and an off device clears it.
  crossbar(const crossbar& shape, std::vector<placed_device> devices);

  [[nodiscard]] int rows() const { return rows_; }
  [[nodiscard]] int columns() const { return columns_; }

  /// The programmed devices, sorted by (row, column); off junctions are
  /// absent.
  [[nodiscard]] const std::vector<placed_device>& devices() const {
    return devices_;
  }
  /// Wordline `row`'s devices, by column.
  [[nodiscard]] std::span<const placed_device> row_devices(int row) const;
  /// Bitline `column`'s devices, by row.
  [[nodiscard]] std::span<const placed_device> column_devices(
      int column) const;

  /// The device at one junction (off where none is programmed).
  [[nodiscard]] const device& at(int row, int column) const;
  /// Call visit(row, column, device) for every junction, row-major, off
  /// junctions included: for the models in which every junction counts
  /// (analog stamping, faults that can strike anywhere).
  template <typename Visit>
  void for_each_junction(Visit&& visit) const {
    static constexpr device off{};
    for (int r = 0; r < rows_; ++r) {
      const std::span<const placed_device> devices = row_devices(r);
      auto next = devices.begin();
      for (int c = 0; c < columns_; ++c)
        visit(r, c,
              next != devices.end() && next->column == c ? (next++)->literal
                                                         : off);
    }
  }
  /// Program one junction; an off device clears it. The edit path for
  /// tests, mutants and probes: the bulk path with one more device, it
  /// costs O(devices + rows + columns).
  void set(int row, int column, device d);
  void set_literal(int row, int column, int variable, bool positive) {
    set(row, column,
        {positive ? literal_kind::positive : literal_kind::negative, variable});
  }
  void set_on(int row, int column) { set(row, column, {literal_kind::on, -1}); }
  /// Throw compact::error, as set() would, unless `p` fits this design: its
  /// junction in range and, for a literal, a variable.
  void check_device(const placed_device& p) const {
    check(p.row >= 0 && p.row < rows_ && p.column >= 0 && p.column < columns_,
          "crossbar: junction out of range");
    check(!p.literal.reads_variable() || p.literal.variable >= 0,
          "crossbar: literal device needs a variable");
  }

  /// The highest variable a device reads (-1 when none), so evaluation
  /// checks an assignment's length once, not per device.
  [[nodiscard]] int max_variable() const { return max_variable_; }

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
  /// Rebuild the row offsets, the column index and max_variable_ from
  /// devices_.
  void index();

  int rows_ = 0;
  int columns_ = 0;
  int input_row_ = -1;
  int max_variable_ = -1;
  std::vector<placed_device> devices_;    // by (row, column)
  // The index, unused while there are no devices.
  std::vector<int> row_start_;            // rows + 1 offsets into devices_
  std::vector<placed_device> by_column_;  // by (column, row)
  std::vector<int> column_start_;         // columns + 1 offsets into it
  std::vector<output_port> outputs_;
  std::vector<std::pair<std::string, bool>> constant_outputs_;
};

/// A device as text: "." when off, "1" when on, else its variable's name
/// (x<index> past `variable_names`), with "!" when negative.
[[nodiscard]] std::string device_label(
    const device& d, const std::vector<std::string>& variable_names);

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
