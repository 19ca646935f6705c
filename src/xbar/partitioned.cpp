#include "xbar/partitioned.hpp"

#include <algorithm>
#include <queue>

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

namespace {

/// Flat wire numbering across fragments: fragment f contributes its rows
/// then its columns, fragments in order.
struct wire_index {
  std::vector<int> offset;  // per fragment, start of its row block
  int total = 0;

  explicit wire_index(const partitioned_design& design) {
    offset.reserve(static_cast<std::size_t>(design.array_count()));
    for (const crossbar& f : design.fragments()) {
      offset.push_back(total);
      total += f.rows() + f.columns();
    }
  }
  [[nodiscard]] int of_row(const partitioned_design&, int array,
                           int row) const {
    return offset[static_cast<std::size_t>(array)] + row;
  }
  [[nodiscard]] int of_column(const partitioned_design& design, int array,
                              int column) const {
    return offset[static_cast<std::size_t>(array)] +
           design.fragment(array).rows() + column;
  }
};

}  // namespace

std::vector<std::vector<bool>> reachable_rows(
    const partitioned_design& design, const std::vector<bool>& assignment) {
  const int input = design.input_array();
  check(input >= 0, "partitioned evaluate: design has no input row");
  for (const crossbar& frag : design.fragments())
    check_assignment(frag, assignment.size());

  wire_index index(design);
  // Adjacency over nets: conducting devices join a fragment's row and
  // column wires; bridges join wires unconditionally.
  std::vector<std::vector<int>> adjacent(
      static_cast<std::size_t>(index.total));
  for (int f = 0; f < design.array_count(); ++f) {
    const crossbar& frag = design.fragment(f);
    for (int r = 0; r < frag.rows(); ++r) {
      for (int c = 0; c < frag.columns(); ++c) {
        if (!frag.at(r, c).conducts(assignment)) continue;
        const int rw = index.of_row(design, f, r);
        const int cw = index.of_column(design, f, c);
        adjacent[static_cast<std::size_t>(rw)].push_back(cw);
        adjacent[static_cast<std::size_t>(cw)].push_back(rw);
      }
    }
  }
  for (const bridge& b : design.connections()) {
    const int aw = b.a.kind == wire_kind::row
                       ? index.of_row(design, b.a.array, b.a.index)
                       : index.of_column(design, b.a.array, b.a.index);
    const int bw = b.b.kind == wire_kind::row
                       ? index.of_row(design, b.b.array, b.b.index)
                       : index.of_column(design, b.b.array, b.b.index);
    adjacent[static_cast<std::size_t>(aw)].push_back(bw);
    adjacent[static_cast<std::size_t>(bw)].push_back(aw);
  }

  std::vector<bool> reached(static_cast<std::size_t>(index.total), false);
  std::queue<int> frontier;
  const int start =
      index.of_row(design, input, design.fragment(input).input_row());
  reached[static_cast<std::size_t>(start)] = true;
  frontier.push(start);
  while (!frontier.empty()) {
    const int wire = frontier.front();
    frontier.pop();
    for (const int next : adjacent[static_cast<std::size_t>(wire)]) {
      if (reached[static_cast<std::size_t>(next)]) continue;
      reached[static_cast<std::size_t>(next)] = true;
      frontier.push(next);
    }
  }

  std::vector<std::vector<bool>> rows;
  rows.reserve(static_cast<std::size_t>(design.array_count()));
  for (int f = 0; f < design.array_count(); ++f) {
    const crossbar& frag = design.fragment(f);
    std::vector<bool> fragment_rows(static_cast<std::size_t>(frag.rows()));
    for (int r = 0; r < frag.rows(); ++r)
      fragment_rows[static_cast<std::size_t>(r)] =
          reached[static_cast<std::size_t>(index.of_row(design, f, r))];
    rows.push_back(std::move(fragment_rows));
  }
  return rows;
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
