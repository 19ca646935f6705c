#include "xbar/serialize.hpp"

#include <map>

#include "util/strings.hpp"

namespace compact::xbar {
namespace {

/// Comment-stripping, blank-skipping line tokenizer shared by both format
/// versions. `line` keeps the raw text of the last tokenized line for error
/// messages.
struct line_reader {
  std::istream& is;
  std::string line;

  bool next(std::vector<std::string>& tokens) {
    while (std::getline(is, line)) {
      if (const auto hash = line.find('#'); hash != std::string::npos)
        line.erase(hash);
      tokens = split_ws(line);
      if (!tokens.empty()) return true;
    }
    return false;
  }
};

int parse_int(const std::string& token, const std::string& line) {
  try {  // non-numeric / out-of-range must not escape as raw stoi errors
    return std::stoi(token);
  } catch (const std::logic_error&) {
    throw parse_error("xbar: malformed number in: " + line);
  }
}

/// One crossbar body: the dim line through `terminator`. `names` collects
/// var lines when non-null (version 1); version-2 array blocks pass null
/// because variable names are global there.
crossbar read_body(line_reader& in, const std::string& terminator,
                   std::map<int, std::string>* names) {
  std::vector<std::string> tokens;
  if (!in.next(tokens) || tokens.size() != 3 || tokens[0] != "dim")
    throw parse_error("xbar: missing dim line");
  const int rows = parse_int(tokens[1], in.line);
  const int cols = parse_int(tokens[2], in.line);
  if (rows < 1 || cols < 0) throw parse_error("xbar: bad dimensions");

  crossbar design(rows, cols);
  while (in.next(tokens)) {
    if (tokens[0] == terminator) return design;
    try {
      if (tokens[0] == "input" && tokens.size() == 2) {
        design.set_input_row(std::stoi(tokens[1]));
      } else if (tokens[0] == "output" && tokens.size() == 3) {
        design.add_output(std::stoi(tokens[1]), tokens[2]);
      } else if (tokens[0] == "const" && tokens.size() == 3) {
        design.add_constant_output(tokens[2] == "1", tokens[1]);
      } else if (tokens[0] == "var" && tokens.size() == 3 &&
                 names != nullptr) {
        (*names)[std::stoi(tokens[1])] = tokens[2];
      } else if (tokens[0] == "d" && tokens.size() == 4) {
        const int r = std::stoi(tokens[1]);
        const int c = std::stoi(tokens[2]);
        const std::string& spec = tokens[3];
        if (spec == "on") {
          design.set_on(r, c);
        } else if (spec.size() >= 2 && (spec[0] == '+' || spec[0] == '-')) {
          design.set_literal(r, c, std::stoi(spec.substr(1)), spec[0] == '+');
        } else {
          throw parse_error("xbar: bad device spec " + spec);
        }
      } else {
        throw parse_error("xbar: unrecognized line: " + in.line);
      }
    } catch (const error&) {
      throw;
    } catch (const std::logic_error&) {  // stoi: invalid_argument/out_of_range
      throw parse_error("xbar: malformed number in: " + in.line);
    }
  }
  throw parse_error("xbar: missing " + terminator + " marker");
}

std::vector<std::string> pack_names(const std::map<int, std::string>& names) {
  std::vector<std::string> packed;
  if (!names.empty()) {
    const int max_var = names.rbegin()->first;
    packed.resize(static_cast<std::size_t>(max_var) + 1);
    for (const auto& [v, n] : names)
      packed[static_cast<std::size_t>(v)] = n;
  }
  return packed;
}

void write_ports_and_devices(const crossbar& design, std::ostream& os) {
  if (design.input_row() >= 0) os << "input " << design.input_row() << '\n';
  for (const output_port& o : design.outputs())
    os << "output " << o.row << ' ' << o.name << '\n';
  for (const auto& [name, value] : design.constant_outputs())
    os << "const " << name << ' ' << (value ? 1 : 0) << '\n';
}

void write_devices(const crossbar& design, std::ostream& os) {
  for (int r = 0; r < design.rows(); ++r) {
    for (int c = 0; c < design.columns(); ++c) {
      const device& d = design.at(r, c);
      switch (d.kind) {
        case literal_kind::off:
          break;
        case literal_kind::on:
          os << "d " << r << ' ' << c << " on\n";
          break;
        case literal_kind::positive:
          os << "d " << r << ' ' << c << " +" << d.variable << '\n';
          break;
        case literal_kind::negative:
          os << "d " << r << ' ' << c << " -" << d.variable << '\n';
          break;
      }
    }
  }
}

const char* wire_kind_name(wire_kind kind) {
  return kind == wire_kind::row ? "row" : "col";
}

wire_ref parse_wire_ref(const std::string& array_token,
                        const std::string& kind_token,
                        const std::string& index_token,
                        const std::string& line) {
  wire_ref ref;
  ref.array = parse_int(array_token, line);
  if (kind_token == "row") {
    ref.kind = wire_kind::row;
  } else if (kind_token == "col") {
    ref.kind = wire_kind::column;
  } else {
    throw parse_error("xbar: bad wire kind '" + kind_token +
                      "' (expected row or col) in: " + line);
  }
  ref.index = parse_int(index_token, line);
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

loaded_design read_design(std::istream& is) {
  line_reader in{is, {}};
  std::vector<std::string> tokens;
  if (!in.next(tokens) || tokens.size() != 2 || tokens[0] != "xbar")
    throw parse_error("xbar: missing header");
  if (tokens[1] != "1")
    throw parse_error("xbar: unsupported format version " + tokens[1]);

  std::map<int, std::string> names;
  crossbar design = read_body(in, "end", &names);
  return {std::move(design), pack_names(names)};
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

loaded_partitioned_design read_partitioned_design(std::istream& is) {
  line_reader in{is, {}};
  std::vector<std::string> tokens;
  if (!in.next(tokens) || tokens.size() != 2 || tokens[0] != "xbar")
    throw parse_error("xbar: missing header");

  if (tokens[1] == "1") {
    std::map<int, std::string> names;
    crossbar design = read_body(in, "end", &names);
    return {wrap_single(std::move(design)), pack_names(names)};
  }
  if (tokens[1] != "2")
    throw parse_error("xbar: unsupported format version " + tokens[1]);

  if (!in.next(tokens) || tokens.size() != 2 || tokens[0] != "arrays")
    throw parse_error("xbar: version 2 requires an arrays count after the "
                      "header");
  const int count = parse_int(tokens[1], in.line);
  if (count < 1) throw parse_error("xbar: bad arrays count");

  partitioned_design design;
  std::map<int, std::string> names;
  int next_array = 0;
  while (in.next(tokens)) {
    if (tokens[0] == "end") {
      if (next_array != count)
        throw parse_error("xbar: expected " + std::to_string(count) +
                          " arrays, found " + std::to_string(next_array));
      return {std::move(design), pack_names(names)};
    }
    if (tokens[0] == "var" && tokens.size() == 3) {
      names[parse_int(tokens[1], in.line)] = tokens[2];
    } else if (tokens[0] == "array" && tokens.size() == 2) {
      if (parse_int(tokens[1], in.line) != next_array || next_array >= count)
        throw parse_error("xbar: arrays must appear once each, in order: " +
                          in.line);
      design.add_fragment(read_body(in, "endarray", nullptr));
      ++next_array;
    } else if (tokens[0] == "connect" && tokens.size() == 7) {
      const std::string line = in.line;
      const wire_ref a = parse_wire_ref(tokens[1], tokens[2], tokens[3], line);
      const wire_ref b = parse_wire_ref(tokens[4], tokens[5], tokens[6], line);
      try {  // reference validation reuses add_connection's checks
        design.add_connection(a, b);
      } catch (const error& e) {
        throw parse_error(std::string(e.what()) + " in: " + line);
      }
    } else {
      throw parse_error("xbar: unrecognized line: " + in.line);
    }
  }
  throw parse_error("xbar: missing end marker");
}

void write_design_dot(const crossbar& design, std::ostream& os,
                      const std::vector<std::string>& variable_names) {
  auto literal_label = [&](const device& d) -> std::string {
    switch (d.kind) {
      case literal_kind::on:
        return "1";
      case literal_kind::positive:
      case literal_kind::negative: {
        std::string name =
            d.variable >= 0 &&
                    static_cast<std::size_t>(d.variable) <
                        variable_names.size()
                ? variable_names[static_cast<std::size_t>(d.variable)]
                : std::string("x").append(std::to_string(d.variable));
        return d.kind == literal_kind::negative ? "!" + name : name;
      }
      case literal_kind::off:
        return {};
    }
    return {};
  };

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
  for (int r = 0; r < design.rows(); ++r) {
    for (int c = 0; c < design.columns(); ++c) {
      const std::string label = literal_label(design.at(r, c));
      if (label.empty()) continue;
      os << "  w" << r << " -- b" << c << " [label=\"" << label << "\"];\n";
    }
  }
  os << "}\n";
}

}  // namespace compact::xbar
