#include "xbar/crossbar.hpp"

#include <algorithm>

namespace compact::xbar {

crossbar::crossbar(int rows, int columns) : rows_(rows), columns_(columns) {
  check(rows >= 1 && columns >= 0, "crossbar: non-positive dimensions");
  devices_.resize(static_cast<std::size_t>(rows) *
                  static_cast<std::size_t>(std::max(columns, 0)));
}

const device& crossbar::at(int row, int column) const {
  check(row >= 0 && row < rows_ && column >= 0 && column < columns_,
        "crossbar: junction out of range");
  return devices_[static_cast<std::size_t>(row) *
                      static_cast<std::size_t>(columns_) +
                  static_cast<std::size_t>(column)];
}

void crossbar::set(int row, int column, device d) {
  check(row >= 0 && row < rows_ && column >= 0 && column < columns_,
        "crossbar: junction out of range");
  if (d.kind == literal_kind::positive || d.kind == literal_kind::negative) {
    check(d.variable >= 0, "crossbar: literal device needs a variable");
    max_variable_ = std::max(max_variable_, d.variable);
  }
  devices_[static_cast<std::size_t>(row) *
               static_cast<std::size_t>(columns_) +
           static_cast<std::size_t>(column)] = d;
}

void crossbar::set_literal(int row, int column, int variable, bool positive) {
  set(row, column,
      {positive ? literal_kind::positive : literal_kind::negative, variable});
}

void crossbar::set_on(int row, int column) {
  set(row, column, {literal_kind::on, -1});
}

void crossbar::set_input_row(int row) {
  check(row >= 0 && row < rows_, "crossbar: input row out of range");
  input_row_ = row;
}

void crossbar::add_output(int row, std::string name) {
  check(row >= 0 && row < rows_, "crossbar: output row out of range");
  outputs_.push_back({row, std::move(name)});
}

void crossbar::add_constant_output(bool value, std::string name) {
  constant_outputs_.emplace_back(std::move(name), value);
}

int crossbar::active_device_count() const {
  int count = 0;
  for (const device& d : devices_)
    if (d.kind == literal_kind::positive || d.kind == literal_kind::negative)
      ++count;
  return count;
}

void check_assignment(const crossbar& design, std::size_t bits) {
  const int v = design.max_variable();
  if (v >= 0 && static_cast<std::size_t>(v) >= bits)
    throw error("evaluate: a device reads variable " + std::to_string(v) +
                ", beyond the " + std::to_string(bits) + "-bit assignment");
}

crossbar remap_variables(const crossbar& design,
                         const std::vector<int>& mapping) {
  crossbar remapped = design;
  for (int r = 0; r < design.rows(); ++r) {
    for (int c = 0; c < design.columns(); ++c) {
      const device& d = design.at(r, c);
      if (d.kind != literal_kind::positive &&
          d.kind != literal_kind::negative)
        continue;
      check(d.variable >= 0 &&
                static_cast<std::size_t>(d.variable) < mapping.size(),
            "remap_variables: device variable outside the mapping");
      remapped.set(r, c, {d.kind, mapping[static_cast<std::size_t>(d.variable)]});
    }
  }
  return remapped;
}

void crossbar::print(std::ostream& os,
                     const std::vector<std::string>& variable_names) const {
  auto label = [&](const device& d) -> std::string {
    switch (d.kind) {
      case literal_kind::off:
        return ".";
      case literal_kind::on:
        return "1";
      case literal_kind::positive:
      case literal_kind::negative: {
        std::string name =
            d.variable < static_cast<std::int32_t>(variable_names.size())
                ? variable_names[static_cast<std::size_t>(d.variable)]
                : std::string("x").append(std::to_string(d.variable));
        return d.kind == literal_kind::negative ? "!" + name : name;
      }
    }
    return "?";
  };

  std::size_t width = 1;
  for (int r = 0; r < rows_; ++r)
    for (int c = 0; c < columns_; ++c)
      width = std::max(width, label(at(r, c)).size());

  for (int r = 0; r < rows_; ++r) {
    for (int c = 0; c < columns_; ++c) {
      const std::string cell = label(at(r, c));
      os << cell << std::string(width - cell.size() + 1, ' ');
    }
    // Row annotations.
    if (r == input_row_) os << " <- input";
    for (const output_port& o : outputs_)
      if (o.row == r) os << " <- out:" << o.name;
    os << '\n';
  }
}

}  // namespace compact::xbar
