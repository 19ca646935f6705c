#include "frontend/blif.hpp"

#include <cstdint>
#include <functional>

#include "util/strings.hpp"

namespace compact::frontend {
namespace {

/// One logical line: the physical pieces it folds (trimmed, comment and
/// continuation backslash removed) and their tokens, all views of the text.
struct logical_line {
  std::vector<std::string_view> pieces;
  std::vector<std::string_view> tokens;

  /// The line as error messages quote it: the pieces joined by one space.
  [[nodiscard]] std::string text() const {
    std::string joined;
    for (std::size_t i = 0; i < pieces.size(); ++i) {
      if (i > 0) joined += ' ';
      joined.append(pieces[i]);
    }
    return joined;
  }
};

/// Reads logical lines, folding '\' continuations, stripping '#' comments
/// and skipping blank lines.
class line_reader {
 public:
  explicit line_reader(std::string_view text) : text_(text) {}

  bool next(logical_line& line) {
    line.pieces.clear();
    line.tokens.clear();
    while (pos_ < text_.size()) {
      std::string_view piece = next_line(text_, pos_);
      piece = trim(piece.substr(0, piece.find('#')));
      const bool continued = !piece.empty() && piece.back() == '\\';
      if (continued) piece.remove_suffix(1);
      // Empty pieces before the first non-empty one add nothing; after it,
      // each piece adds a separating space to the quoted line.
      if (!line.pieces.empty() || !piece.empty()) {
        line.pieces.push_back(piece);
        append_split_ws(piece, line.tokens);
      }
      if (!continued && !line.pieces.empty()) return true;
    }
    return !line.pieces.empty();
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
};

/// A signal name and everything the parser knows about it.
struct signal {
  std::string_view name;
  int node = -1;          // network node, once added
  int gate = -1;          // the .names block defining it
  bool visiting = false;  // on the emission stack
};

/// Open-addressing map from a signal name (a view of the text) to its id.
class name_table {
 public:
  name_table() : slots_(64, -1) {}

  int intern(std::string_view name) {
    if (2 * (signals_.size() + 1) > slots_.size()) grow();
    std::size_t slot = std::hash<std::string_view>{}(name) & mask();
    while (slots_[slot] >= 0) {
      if (signals_[static_cast<std::size_t>(slots_[slot])].name == name)
        return slots_[slot];
      slot = (slot + 1) & mask();
    }
    slots_[slot] = static_cast<int>(signals_.size());
    signals_.push_back({name});
    return slots_[slot];
  }

  signal& operator[](int id) { return signals_[static_cast<std::size_t>(id)]; }

 private:
  [[nodiscard]] std::size_t mask() const { return slots_.size() - 1; }

  void grow() {
    slots_.assign(2 * slots_.size(), -1);
    for (std::size_t id = 0; id < signals_.size(); ++id) {
      std::size_t slot =
          std::hash<std::string_view>{}(signals_[id].name) & mask();
      while (slots_[slot] >= 0) slot = (slot + 1) & mask();
      slots_[slot] = static_cast<int>(id);
    }
  }

  std::vector<signal> signals_;
  std::vector<int> slots_;  // signal id or -1; size a power of two
};

/// A .names block: ranges of the parser's flat fanin and cover-row arrays.
struct raw_gate {
  int output = -1;
  std::uint32_t first_fanin = 0;
  std::uint32_t fanin_count = 0;
  std::uint32_t first_row = 0;
  std::uint32_t row_count = 0;
  char output_polarity = '1';  // '1' = on-set cover, '0' = off-set cover
};

}  // namespace

network parse_blif(std::string_view text) {
  std::string_view model_name = "top";
  name_table names;
  std::vector<int> inputs;
  std::vector<int> outputs;
  std::vector<raw_gate> gates;  // declaration order
  std::vector<int> fanins;      // signal ids, gate by gate
  std::vector<std::string_view> rows;  // cover cubes, gate by gate

  line_reader reader(text);
  logical_line line;
  int current = -1;  // gate receiving cover rows
  bool saw_end = false;
  while (!saw_end && reader.next(line)) {
    const std::vector<std::string_view>& tokens = line.tokens;
    const std::string_view head = tokens[0];

    if (head[0] == '.') {
      current = -1;
      if (head == ".model") {
        if (tokens.size() >= 2) model_name = tokens[1];
      } else if (head == ".inputs") {
        for (std::size_t i = 1; i < tokens.size(); ++i)
          inputs.push_back(names.intern(tokens[i]));
      } else if (head == ".outputs") {
        for (std::size_t i = 1; i < tokens.size(); ++i)
          outputs.push_back(names.intern(tokens[i]));
      } else if (head == ".names") {
        if (tokens.size() < 2)
          throw parse_error("blif: .names needs at least an output signal");
        const int out = names.intern(tokens.back());
        if (names[out].gate >= 0)
          throw parse_error("blif: signal defined twice: " +
                            std::string(tokens.back()));
        raw_gate g;
        g.output = out;
        g.first_fanin = static_cast<std::uint32_t>(fanins.size());
        g.fanin_count = static_cast<std::uint32_t>(tokens.size() - 2);
        g.first_row = static_cast<std::uint32_t>(rows.size());
        for (std::size_t i = 1; i + 1 < tokens.size(); ++i)
          fanins.push_back(names.intern(tokens[i]));
        current = static_cast<int>(gates.size());
        names[out].gate = current;
        gates.push_back(g);
      } else if (head == ".end") {
        saw_end = true;
      } else if (head == ".latch" || head == ".subckt" || head == ".gate") {
        throw parse_error("blif: unsupported construct " +
                          std::string(head) + " (combinational subset only)");
      } else {
        // Unknown dot-directives (e.g. .default_input_arrival) are ignored.
      }
      continue;
    }

    // Cover row of the current .names block.
    if (current < 0)
      throw parse_error("blif: cover row outside a .names block: " +
                        line.text());
    raw_gate& g = gates[static_cast<std::size_t>(current)];
    std::string_view cube;
    char output_value = '1';
    if (g.fanin_count == 0) {
      if (tokens.size() != 1 || (tokens[0] != "0" && tokens[0] != "1"))
        throw parse_error("blif: bad constant row: " + line.text());
      output_value = tokens[0][0];
    } else {
      if (tokens.size() != 2)
        throw parse_error("blif: cover row needs cube and output: " +
                          line.text());
      cube = tokens[0];
      if (cube.size() != g.fanin_count)
        throw parse_error("blif: cube width mismatch: " + line.text());
      if (tokens[1] != "0" && tokens[1] != "1")
        throw parse_error("blif: output value must be 0 or 1: " +
                          line.text());
      output_value = tokens[1][0];
    }
    if (g.row_count > 0 && g.output_polarity != output_value)
      throw parse_error("blif: mixed on-set/off-set rows in one .names");
    g.output_polarity = output_value;
    rows.push_back(cube);
    ++g.row_count;
  }

  if (inputs.empty() && gates.empty())
    throw parse_error("blif: no .inputs or .names found");

  // Build the network: inputs first, then gates in dependency order.
  network net{std::string(model_name)};
  for (const int id : inputs) {
    signal& s = names[id];
    if (s.node >= 0)
      throw parse_error("blif: duplicate input " + std::string(s.name));
    s.node = net.add_input(std::string(s.name));
  }

  // Depth-first post-order emission with an explicit stack, so netlist
  // depth is bounded by memory, not by the thread's stack. Each frame's
  // resolved fanin nodes sit on `resolved` above its parent's.
  struct frame {
    int gate;
    std::uint32_t next_fanin;
    std::size_t first_resolved;
  };
  std::vector<frame> stack;
  std::vector<int> resolved;
  // The signal's node when it has one; otherwise opens a frame for it and
  // returns -1.
  const auto resolve = [&](int id) -> int {
    signal& s = names[id];
    if (s.node >= 0) return s.node;
    if (s.gate < 0)
      throw parse_error("blif: undefined signal " + std::string(s.name));
    if (s.visiting)
      throw parse_error("blif: combinational cycle through " +
                        std::string(s.name));
    s.visiting = true;
    stack.push_back({s.gate, 0, resolved.size()});
    return -1;
  };
  const auto emit = [&](int root) {
    if (resolve(root) >= 0) return;
    while (!stack.empty()) {
      frame& top = stack.back();
      const raw_gate& g = gates[static_cast<std::size_t>(top.gate)];
      if (top.next_fanin < g.fanin_count) {
        const int fanin = fanins[g.first_fanin + top.next_fanin++];
        if (const int node = resolve(fanin); node >= 0)
          resolved.push_back(node);
        continue;
      }
      std::vector<int> gate_fanins(
          resolved.begin() + static_cast<std::ptrdiff_t>(top.first_resolved),
          resolved.end());
      resolved.resize(top.first_resolved);
      stack.pop_back();

      signal& s = names[g.output];
      const auto row = rows.begin() + g.first_row;
      int node;
      if (g.output_polarity == '1') {
        std::vector<std::string> cubes;
        if (g.fanin_count > 0)
          cubes.assign(row, row + g.row_count);
        else if (g.row_count > 0)
          cubes.assign(1, "");  // ".names x" + row "1": constant one
        node = net.add_gate(std::string(s.name), std::move(gate_fanins),
                            std::move(cubes));
      } else {
        // Off-set cover: named gate is the complement of the cover.
        std::string offset_name(s.name);
        offset_name += "_offset";
        const int on = net.add_gate(
            std::move(offset_name), std::move(gate_fanins),
            std::vector<std::string>(row, row + g.row_count));
        node = net.add_not(on, std::string(s.name));
      }
      s.node = node;
      s.visiting = false;
      if (!stack.empty()) resolved.push_back(node);
    }
  };

  // Emit every declared gate (outputs first ensures reachability; remaining
  // gates are emitted afterwards so a round-trip preserves them).
  for (const int id : outputs) emit(id);
  for (const raw_gate& g : gates) emit(g.output);

  for (const int id : outputs)
    net.set_output(names[id].node, std::string(names[id].name));
  return net;
}

network parse_blif(std::istream& is) { return parse_blif(read_stream(is)); }

void write_blif(const network& net, std::ostream& os) {
  os << ".model " << net.name() << '\n';
  os << ".inputs";
  for (int i : net.inputs()) os << ' ' << net.node(i).name;
  os << '\n';
  os << ".outputs";
  for (const network_output& o : net.outputs()) os << ' ' << o.name;
  os << '\n';

  for (int i = 0; i < static_cast<int>(net.node_count()); ++i) {
    const network_node& n = net.node(i);
    if (n.node_kind == network_node::kind::input) continue;
    os << ".names";
    for (int f : n.fanins) os << ' ' << net.node(f).name;
    os << ' ' << n.name << '\n';
    if (n.fanins.empty()) {
      if (!n.cubes.empty()) os << "1\n";
      // constant 0: no rows
    } else {
      for (const std::string& cube : n.cubes) os << cube << " 1\n";
    }
  }

  // Outputs that alias a differently-named node need a buffer.
  for (const network_output& o : net.outputs()) {
    if (net.node(o.node).name != o.name)
      os << ".names " << net.node(o.node).name << ' ' << o.name << "\n1 1\n";
  }
  os << ".end\n";
}

}  // namespace compact::frontend
