#include "xbar/partitioned.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace compact::xbar {
namespace {

void check_wire(const std::vector<crossbar>& fragments, const wire_ref& w,
                const char* which) {
  check(w.array >= 0 && static_cast<std::size_t>(w.array) < fragments.size(),
        std::string("partitioned_design: connection ") + which +
            " references array " + std::to_string(w.array) + " of " +
            std::to_string(fragments.size()));
  const crossbar& f = fragments[static_cast<std::size_t>(w.array)];
  const int limit = w.kind == wire_kind::row ? f.rows() : f.columns();
  check(w.index >= 0 && w.index < limit,
        std::string("partitioned_design: connection ") + which +
            " references wire " + std::to_string(w.index) + " of " +
            std::to_string(limit));
}

}  // namespace

void partitioned_design::add_connection(wire_ref a, wire_ref b) {
  check_wire(fragments_, a, "endpoint a");
  check_wire(fragments_, b, "endpoint b");
  check(a.array != b.array,
        "partitioned_design: a connection must join distinct arrays");
  connections_.push_back({a, b});
}

const crossbar& partitioned_design::fragment(int array) const {
  check(array >= 0 && static_cast<std::size_t>(array) < fragments_.size(),
        "partitioned_design: array index out of range");
  return fragments_[static_cast<std::size_t>(array)];
}

crossbar& partitioned_design::fragment(int array) {
  check(array >= 0 && static_cast<std::size_t>(array) < fragments_.size(),
        "partitioned_design: array index out of range");
  return fragments_[static_cast<std::size_t>(array)];
}

int partitioned_design::input_array() const {
  for (std::size_t f = 0; f < fragments_.size(); ++f)
    if (fragments_[f].input_row() >= 0) return static_cast<int>(f);
  return -1;
}

int partitioned_design::total_semiperimeter() const {
  int total = 0;
  for (const crossbar& f : fragments_) total += f.semiperimeter();
  return total;
}

long long partitioned_design::total_area() const {
  long long total = 0;
  for (const crossbar& f : fragments_) total += f.area();
  return total;
}

int partitioned_design::active_device_count() const {
  int total = 0;
  for (const crossbar& f : fragments_) total += f.active_device_count();
  return total;
}

int partitioned_design::max_fragment_rows() const {
  int most = 0;
  for (const crossbar& f : fragments_) most = std::max(most, f.rows());
  return most;
}

int partitioned_design::max_fragment_columns() const {
  int most = 0;
  for (const crossbar& f : fragments_) most = std::max(most, f.columns());
  return most;
}

std::vector<std::string> partitioned_design::output_names() const {
  std::vector<std::string> names;
  for (const crossbar& f : fragments_)
    for (const output_port& o : f.outputs()) names.push_back(o.name);
  for (const crossbar& f : fragments_)
    for (const auto& [name, value] : f.constant_outputs())
      names.push_back(name);
  return names;
}

void partitioned_design::print(
    std::ostream& os, const std::vector<std::string>& variable_names) const {
  for (std::size_t f = 0; f < fragments_.size(); ++f) {
    os << "array " << f << " (" << fragments_[f].rows() << "x"
       << fragments_[f].columns() << ")\n";
    fragments_[f].print(os, variable_names);
  }
  for (const bridge& b : connections_) {
    const auto wire = [](const wire_ref& w) {
      return std::to_string(w.array) +
             (w.kind == wire_kind::row ? ":WL" : ":BL") +
             std::to_string(w.index);
    };
    os << "connect " << wire(b.a) << " -- " << wire(b.b) << '\n';
  }
}

partitioned_design wrap_single(crossbar design) {
  partitioned_design wrapped;
  wrapped.add_fragment(std::move(design));
  return wrapped;
}

partitioned_design remap_variables(const partitioned_design& design,
                                   const std::vector<int>& mapping) {
  partitioned_design remapped;
  for (const crossbar& f : design.fragments())
    remapped.add_fragment(remap_variables(f, mapping));
  for (const bridge& b : design.connections())
    remapped.add_connection(b.a, b.b);
  return remapped;
}

// --- stitched evaluation ----------------------------------------------------

wire_numbering::wire_numbering(std::span<const crossbar> fragments) {
  start_.reserve(2 * fragments.size() + 1);
  int total = 0;
  for (const crossbar& f : fragments) {
    start_.push_back(total);
    start_.push_back(total + f.rows());
    total += f.rows() + f.columns();
  }
  start_.push_back(total);
}

bool wire_numbering::contains(const wire_ref& w) const {
  // Block 2f holds fragment f's rows, block 2f + 1 its columns.
  const std::size_t block = 2 * static_cast<std::size_t>(w.array) +
                            (w.kind == wire_kind::row ? 0 : 1);
  return w.array >= 0 && block + 1 < start_.size() && w.index >= 0 &&
         w.index < start_[block + 1] - start_[block];
}

std::vector<std::pair<int, wire_ref>> bridge_links(
    std::span<const bridge> bridges, const wire_numbering& wires) {
  std::vector<std::pair<int, wire_ref>> links;
  links.reserve(2 * bridges.size());
  for (const bridge& b : bridges) {
    links.emplace_back(wires.of(b.a), b.b);
    links.emplace_back(wires.of(b.b), b.a);
  }
  std::ranges::stable_sort(links, {}, &std::pair<int, wire_ref>::first);
  return links;
}

std::vector<std::vector<bool>> reachable_rows(
    std::span<const crossbar> fragments, std::span<const bridge> bridges,
    int input, const std::vector<bool>& assignment) {
  for (const crossbar& f : fragments) check_assignment(f, assignment.size());
  const wire_numbering wires(fragments);
  const std::vector<std::pair<int, wire_ref>> links =
      bridge_links(bridges, wires);
  std::vector<bool> reached(static_cast<std::size_t>(wires.total()), false);
  std::vector<wire_ref> frontier;
  const auto reach = [&](const wire_ref& w) {
    const auto wire = static_cast<std::size_t>(wires.of(w));
    if (reached[wire]) return;
    reached[wire] = true;
    frontier.push_back(w);
  };
  reach({input, wire_kind::row,
         fragments[static_cast<std::size_t>(input)].input_row()});
  while (!frontier.empty()) {
    const wire_ref w = frontier.back();
    frontier.pop_back();
    const crossbar& f = fragments[static_cast<std::size_t>(w.array)];
    if (w.kind == wire_kind::row) {
      for (const placed_device& p : f.row_devices(w.index))
        if (p.literal.conducts(assignment))
          reach({w.array, wire_kind::column, p.column});
    } else {
      for (const placed_device& p : f.column_devices(w.index))
        if (p.literal.conducts(assignment))
          reach({w.array, wire_kind::row, p.row});
    }
    for (const auto& link : std::ranges::equal_range(
             links, wires.of(w), {}, &std::pair<int, wire_ref>::first))
      reach(link.second);
  }

  std::vector<std::vector<bool>> rows;
  rows.reserve(fragments.size());
  for (int f = 0; f < static_cast<int>(fragments.size()); ++f) {
    const auto first = reached.begin() + wires.row(f, 0);
    rows.emplace_back(first, reached.begin() + wires.column(f, 0));
  }
  return rows;
}

std::vector<std::vector<bool>> reachable_rows(
    const partitioned_design& design, const std::vector<bool>& assignment) {
  const int input = design.input_array();
  check(input >= 0, "partitioned evaluate: design has no input row");
  return reachable_rows(design.fragments(), design.connections(), input,
                        assignment);
}

std::vector<bool> evaluate(const partitioned_design& design,
                           const std::vector<bool>& assignment) {
  const std::vector<std::vector<bool>> rows =
      reachable_rows(design, assignment);
  std::vector<bool> values;
  for (int f = 0; f < design.array_count(); ++f)
    for (const output_port& o : design.fragment(f).outputs())
      values.push_back(
          rows[static_cast<std::size_t>(f)][static_cast<std::size_t>(o.row)]);
  for (const crossbar& frag : design.fragments())
    for (const auto& [name, value] : frag.constant_outputs())
      values.push_back(value);
  return values;
}

bool evaluate_output(const partitioned_design& design,
                     const std::vector<bool>& assignment,
                     const std::string& output_name) {
  const std::vector<std::string> names = design.output_names();
  const std::vector<bool> values = evaluate(design, assignment);
  for (std::size_t i = 0; i < names.size(); ++i)
    if (names[i] == output_name) return values[i];
  throw error("partitioned evaluate: no output named '" + output_name + "'");
}

}  // namespace compact::xbar
