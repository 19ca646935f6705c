#include "xbar/crossbar.hpp"

#include <algorithm>
#include <numeric>

namespace compact::xbar {

/// A device's junction, as a projection the algorithms inline (a member
/// pointer projection costs a call per comparison).
constexpr auto junction = [](const placed_device& p) { return p.junction(); };

crossbar::crossbar(int rows, int columns) : rows_(rows), columns_(columns) {
  check(rows >= 1 && columns >= 0, "crossbar: non-positive dimensions");
}

crossbar::crossbar(const crossbar& shape, std::vector<placed_device> devices)
    : rows_(shape.rows_),
      columns_(shape.columns_),
      input_row_(shape.input_row_),
      devices_(std::move(devices)),
      outputs_(shape.outputs_),
      constant_outputs_(shape.constant_outputs_) {
  // The writer's order, strictly row-major without off devices, is what
  // readers hand over: it needs neither sorting nor merging.
  bool canonical = true;
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    check_device(devices_[i]);
    canonical = canonical && devices_[i].literal.kind != literal_kind::off &&
                (i == 0 || devices_[i - 1].junction() < devices_[i].junction());
  }
  if (!canonical) {
    if (!std::ranges::is_sorted(devices_, {}, junction))
      std::ranges::stable_sort(devices_, {}, junction);
    // Of each junction's run keep the last device, unless it is off.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < devices_.size(); ++i)
      if ((i + 1 == devices_.size() ||
           devices_[i + 1].junction() != devices_[i].junction()) &&
          devices_[i].literal.kind != literal_kind::off)
        devices_[kept++] = devices_[i];
    devices_.resize(kept);
  }
  index();
}

void crossbar::index() {
  row_start_.assign(static_cast<std::size_t>(rows_) + 1, 0);
  column_start_.assign(static_cast<std::size_t>(columns_) + 1, 0);
  max_variable_ = -1;
  for (const placed_device& p : devices_) {
    ++row_start_[static_cast<std::size_t>(p.row) + 1];
    ++column_start_[static_cast<std::size_t>(p.column) + 1];
    if (p.literal.reads_variable())
      max_variable_ = std::max(max_variable_, p.literal.variable);
  }
  std::partial_sum(row_start_.begin(), row_start_.end(), row_start_.begin());
  std::partial_sum(column_start_.begin(), column_start_.end(),
                   column_start_.begin());
  // Dealt out column by column in row-major order, each column stays by
  // row. Column c's start serves as its cursor, ending at column c + 1's
  // start, so one shift restores the starts.
  by_column_.resize(devices_.size());
  for (const placed_device& p : devices_)
    by_column_[static_cast<std::size_t>(
        column_start_[static_cast<std::size_t>(p.column)]++)] = p;
  std::shift_right(column_start_.begin(), column_start_.end(), 1);
  column_start_[0] = 0;
}

std::span<const placed_device> crossbar::row_devices(int row) const {
  check(row >= 0 && row < rows_, "crossbar: row out of range");
  if (devices_.empty()) return {};
  const auto r = static_cast<std::size_t>(row);
  return {devices_.begin() + row_start_[r],
          devices_.begin() + row_start_[r + 1]};
}

std::span<const placed_device> crossbar::column_devices(int column) const {
  check(column >= 0 && column < columns_, "crossbar: column out of range");
  if (devices_.empty()) return {};
  const auto c = static_cast<std::size_t>(column);
  return {by_column_.begin() + column_start_[c],
          by_column_.begin() + column_start_[c + 1]};
}

const device& crossbar::at(int row, int column) const {
  static constexpr device off{};
  check_device({row, column, off});
  const auto it = std::ranges::lower_bound(
      devices_, std::pair(row, column), {}, junction);
  return it != devices_.end() && it->junction() == std::pair(row, column)
             ? it->literal
             : off;
}

void crossbar::set(int row, int column, device d) {
  // After any device already on the junction, so that `d` replaces it.
  std::vector<placed_device> devices = devices_;
  devices.insert(std::ranges::upper_bound(devices, std::pair(row, column), {},
                                          junction),
                 {row, column, d});
  *this = crossbar(*this, std::move(devices));
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
  return static_cast<int>(std::ranges::count_if(
      devices_,
      [](const placed_device& p) { return p.literal.reads_variable(); }));
}

void check_assignment(const crossbar& design, std::size_t bits) {
  const int v = design.max_variable();
  if (v >= 0 && static_cast<std::size_t>(v) >= bits)
    throw error("evaluate: a device reads variable " + std::to_string(v) +
                ", beyond the " + std::to_string(bits) + "-bit assignment");
}

crossbar remap_variables(const crossbar& design,
                         const std::vector<int>& mapping) {
  std::vector<placed_device> devices = design.devices();
  for (placed_device& p : devices) {
    if (!p.literal.reads_variable()) continue;
    check(static_cast<std::size_t>(p.literal.variable) < mapping.size(),
          "remap_variables: device variable outside the mapping");
    p.literal.variable = mapping[static_cast<std::size_t>(p.literal.variable)];
  }
  return crossbar(design, std::move(devices));
}

std::string device_label(const device& d,
                         const std::vector<std::string>& variable_names) {
  if (d.kind == literal_kind::off) return ".";
  if (d.kind == literal_kind::on) return "1";
  const auto v = static_cast<std::size_t>(d.variable);
  const std::string name =
      v < variable_names.size()
          ? variable_names[v]
          : std::string("x").append(std::to_string(d.variable));
  return d.kind == literal_kind::negative ? "!" + name : name;
}

void crossbar::print(std::ostream& os,
                     const std::vector<std::string>& variable_names) const {
  std::size_t width = 1;
  for (const placed_device& p : devices_)
    width = std::max(width, device_label(p.literal, variable_names).size());

  for (int r = 0; r < rows_; ++r) {
    for (int c = 0; c < columns_; ++c) {
      const std::string cell = device_label(at(r, c), variable_names);
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
