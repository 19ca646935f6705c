#include "xbar/serialize.hpp"

#include <algorithm>
#include <charconv>
#include <utility>

#include "util/strings.hpp"

namespace compact::xbar {
namespace {

/// Comment-stripping, blank-skipping line tokenizer over the whole text,
/// shared by both format versions. Tokens are views of the text.
class line_reader {
 public:
  explicit line_reader(std::string_view text) : text_(text) {}

  /// Advance to the next line holding a token; false at the end of the text.
  bool next() {
    while (pos_ < text_.size()) {
      line_ = next_line(text_, pos_);
      line_ = line_.substr(0, line_.find('#'));
      tokens_.clear();
      append_split_ws(line_, tokens_);
      if (!tokens_.empty()) return true;
    }
    return false;
  }

  /// Tokens on the current line.
  [[nodiscard]] std::size_t size() const { return tokens_.size(); }
  [[nodiscard]] std::string_view operator[](std::size_t i) const {
    return tokens_[i];
  }
  /// The current line, comment stripped, as error messages quote it.
  [[nodiscard]] std::string line() const { return std::string(line_); }

  /// A token of the current line as an int: the whole token must be an
  /// optional '-' then decimal digits, within range.
  [[nodiscard]] int number(std::string_view token) const {
    int value = 0;
    const char* end = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), end, value);
    if (ec != std::errc() || ptr != end)
      throw parse_error("xbar: malformed number in: " + line());
    return value;
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  std::string_view line_;
  std::vector<std::string_view> tokens_;
};

/// `var` lines in document order; a later line for an index wins.
using name_lines = std::vector<std::pair<int, std::string_view>>;

/// Record the `var` line the reader is on.
void read_var(const line_reader& in, name_lines& names) {
  const int index = in.number(in[1]);
  if (index < 0)
    throw parse_error("xbar: negative variable index in: " + in.line());
  names.emplace_back(index, in[2]);
}

/// One crossbar body: the dim line through `terminator`. `names` collects
/// var lines when non-null (version 1); version-2 array blocks pass null
/// because variable names are global there.
crossbar read_body(line_reader& in, std::string_view terminator,
                   name_lines* names) {
  if (!in.next() || in.size() != 3 || in[0] != "dim")
    throw parse_error("xbar: missing dim line");
  const int rows = in.number(in[1]);
  const int cols = in.number(in[2]);
  if (rows < 1 || cols < 0) throw parse_error("xbar: bad dimensions");

  // The ports go on `design` as they are read, the devices into one list
  // for the bulk constructor; each line is range-checked when it is read.
  // A COMPACT design of S nanowires holds at most 2S devices (two edges per
  // BDD node, a bridge per VH node), so the list seldom grows.
  crossbar design(rows, cols);
  std::vector<placed_device> devices;
  devices.reserve(2 * static_cast<std::size_t>(design.semiperimeter()));
  while (in.next()) {
    const std::string_view head = in[0];
    if (head == terminator)
      return crossbar(design, std::move(devices));
    if (head == "input" && in.size() == 2) {
      design.set_input_row(in.number(in[1]));
    } else if (head == "output" && in.size() == 3) {
      design.add_output(in.number(in[1]), std::string(in[2]));
    } else if (head == "const" && in.size() == 3) {
      design.add_constant_output(in[2] == "1", std::string(in[1]));
    } else if (head == "var" && in.size() == 3 && names != nullptr) {
      read_var(in, *names);
    } else if (head == "d" && in.size() == 4) {
      placed_device p{in.number(in[1]), in.number(in[2]), {}};
      const std::string_view spec = in[3];
      if (spec == "on") {
        p.literal = {literal_kind::on, -1};
      } else if (spec.size() >= 2 && (spec[0] == '+' || spec[0] == '-')) {
        p.literal = {spec[0] == '+' ? literal_kind::positive
                                    : literal_kind::negative,
                     in.number(spec.substr(1))};
      } else {
        throw parse_error("xbar: bad device spec " + std::string(spec));
      }
      design.check_device(p);
      devices.push_back(p);
    } else {
      throw parse_error("xbar: unrecognized line: " + in.line());
    }
  }
  throw parse_error("xbar: missing " + std::string(terminator) + " marker");
}

std::vector<std::string> pack_names(const name_lines& names) {
  std::vector<std::string> packed;
  int max_var = -1;
  for (const auto& [v, n] : names) max_var = std::max(max_var, v);
  packed.resize(static_cast<std::size_t>(max_var) + 1);  // -1 + 1 wraps to 0
  for (const auto& [v, n] : names) packed[static_cast<std::size_t>(v)] = n;
  return packed;
}

/// The header line: its format version token.
std::string_view read_header(line_reader& in) {
  if (!in.next() || in.size() != 2 || in[0] != "xbar")
    throw parse_error("xbar: missing header");
  return in[1];
}

void write_ports_and_devices(const crossbar& design, std::ostream& os) {
  if (design.input_row() >= 0) os << "input " << design.input_row() << '\n';
  for (const output_port& o : design.outputs())
    os << "output " << o.row << ' ' << o.name << '\n';
  for (const auto& [name, value] : design.constant_outputs())
    os << "const " << name << ' ' << (value ? 1 : 0) << '\n';
}

void write_devices(const crossbar& design, std::ostream& os) {
  for (const placed_device& p : design.devices()) {
    const device& d = p.literal;  // never off: off junctions hold no device
    os << "d " << p.row << ' ' << p.column;
    if (d.kind == literal_kind::on)
      os << " on\n";
    else
      os << (d.kind == literal_kind::positive ? " +" : " -") << d.variable
         << '\n';
  }
}

const char* wire_kind_name(wire_kind kind) {
  return kind == wire_kind::row ? "row" : "col";
}

/// The wire named by tokens first..first+2 of a connect line.
wire_ref read_wire_ref(const line_reader& in, std::size_t first) {
  wire_ref ref;
  ref.array = in.number(in[first]);
  const std::string_view kind = in[first + 1];
  if (kind == "row") {
    ref.kind = wire_kind::row;
  } else if (kind == "col") {
    ref.kind = wire_kind::column;
  } else {
    throw parse_error("xbar: bad wire kind '" + std::string(kind) +
                      "' (expected row or col) in: " + in.line());
  }
  ref.index = in.number(in[first + 2]);
  return ref;
}

}  // namespace

void write_design(const crossbar& design, std::ostream& os,
                  const std::vector<std::string>& variable_names) {
  os << "xbar 1\n";
  os << "dim " << design.rows() << ' ' << design.columns() << '\n';
  write_ports_and_devices(design, os);
  for (std::size_t v = 0; v < variable_names.size(); ++v)
    os << "var " << v << ' ' << variable_names[v] << '\n';
  write_devices(design, os);
  os << "end\n";
}

loaded_design read_design(std::string_view text) {
  line_reader in(text);
  const std::string_view version = read_header(in);
  if (version != "1")
    throw parse_error("xbar: unsupported format version " +
                      std::string(version));

  name_lines names;
  crossbar design = read_body(in, "end", &names);
  return {std::move(design), pack_names(names)};
}

loaded_design read_design(std::istream& is) {
  return read_design(read_stream(is));
}

void write_partitioned_design(const partitioned_design& design,
                              std::ostream& os,
                              const std::vector<std::string>& variable_names) {
  check(design.array_count() >= 1,
        "write_partitioned_design: design has no fragments");
  // Degenerate partitions keep the version-1 text so unpartitioned flows
  // stay byte-identical and old readers keep working.
  if (design.array_count() == 1 && design.connections().empty()) {
    write_design(design.fragment(0), os, variable_names);
    return;
  }
  os << "xbar 2\n";
  os << "arrays " << design.array_count() << '\n';
  for (std::size_t v = 0; v < variable_names.size(); ++v)
    os << "var " << v << ' ' << variable_names[v] << '\n';
  for (int f = 0; f < design.array_count(); ++f) {
    const crossbar& fragment = design.fragment(f);
    os << "array " << f << '\n';
    os << "dim " << fragment.rows() << ' ' << fragment.columns() << '\n';
    write_ports_and_devices(fragment, os);
    write_devices(fragment, os);
    os << "endarray\n";
  }
  for (const bridge& b : design.connections())
    os << "connect " << b.a.array << ' ' << wire_kind_name(b.a.kind) << ' '
       << b.a.index << ' ' << b.b.array << ' ' << wire_kind_name(b.b.kind)
       << ' ' << b.b.index << '\n';
  os << "end\n";
}

loaded_partitioned_design read_partitioned_design(std::string_view text) {
  line_reader in(text);
  const std::string_view version = read_header(in);
  name_lines names;
  if (version == "1") {
    crossbar design = read_body(in, "end", &names);
    return {wrap_single(std::move(design)), pack_names(names)};
  }
  if (version != "2")
    throw parse_error("xbar: unsupported format version " +
                      std::string(version));

  if (!in.next() || in.size() != 2 || in[0] != "arrays")
    throw parse_error("xbar: version 2 requires an arrays count after the "
                      "header");
  const int count = in.number(in[1]);
  if (count < 1) throw parse_error("xbar: bad arrays count");

  partitioned_design design;
  int next_array = 0;
  while (in.next()) {
    const std::string_view head = in[0];
    if (head == "end") {
      if (next_array != count)
        throw parse_error("xbar: expected " + std::to_string(count) +
                          " arrays, found " + std::to_string(next_array));
      return {std::move(design), pack_names(names)};
    }
    if (head == "var" && in.size() == 3) {
      read_var(in, names);
    } else if (head == "array" && in.size() == 2) {
      if (in.number(in[1]) != next_array || next_array >= count)
        throw parse_error("xbar: arrays must appear once each, in order: " +
                          in.line());
      design.add_fragment(read_body(in, "endarray", nullptr));
      ++next_array;
    } else if (head == "connect" && in.size() == 7) {
      const wire_ref a = read_wire_ref(in, 1);
      const wire_ref b = read_wire_ref(in, 4);
      try {  // reference validation reuses add_connection's checks
        design.add_connection(a, b);
      } catch (const error& e) {
        throw parse_error(std::string(e.what()) + " in: " + in.line());
      }
    } else {
      throw parse_error("xbar: unrecognized line: " + in.line());
    }
  }
  throw parse_error("xbar: missing end marker");
}

loaded_partitioned_design read_partitioned_design(std::istream& is) {
  return read_partitioned_design(read_stream(is));
}

void write_design_dot(const crossbar& design, std::ostream& os,
                      const std::vector<std::string>& variable_names) {
  os << "graph crossbar {\n  rankdir=LR;\n";
  for (int r = 0; r < design.rows(); ++r) {
    std::string extra;
    if (r == design.input_row())
      extra = ",style=filled,fillcolor=lightblue";
    for (const output_port& o : design.outputs())
      if (o.row == r) extra = ",style=filled,fillcolor=palegreen";
    os << "  w" << r << " [shape=box,label=\"WL" << r << "\"" << extra
       << "];\n";
  }
  for (int c = 0; c < design.columns(); ++c)
    os << "  b" << c << " [shape=ellipse,label=\"BL" << c << "\"];\n";
  for (const placed_device& p : design.devices())
    os << "  w" << p.row << " -- b" << p.column << " [label=\""
       << device_label(p.literal, variable_names) << "\"];\n";
  os << "}\n";
}

}  // namespace compact::xbar
