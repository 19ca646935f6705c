// The one-pass BLIF and .xbar readers against reference readers: the
// line-by-line implementations they replaced, kept here verbatim except
// that the .xbar reference applies the strict number rule (a whole token,
// an optional '-' then digits, within int) and rejects negative `var`
// indices. Mutated corpus texts must get the same verdict, exception type
// and message from both, and accepted texts node-for-node equal networks or
// byte-equal rewritten designs. Round trips pin writer and reader together.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "api/compact_api.hpp"
#include "frontend/benchgen.hpp"
#include "frontend/blif.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "xbar/serialize.hpp"

namespace compact {
namespace {

// --- reference BLIF reader ---------------------------------------------------

namespace reference_blif {

using frontend::network;

struct raw_gate {
  std::vector<std::string> fanin_names;
  std::vector<std::string> cubes;
  char output_polarity = '1';
};

bool next_line(std::istream& is, std::string& line) {
  line.clear();
  std::string piece;
  while (std::getline(is, piece)) {
    if (const auto hash = piece.find('#'); hash != std::string::npos)
      piece.erase(hash);
    bool continued = false;
    std::string_view trimmed = trim(piece);
    if (!trimmed.empty() && trimmed.back() == '\\') {
      continued = true;
      trimmed.remove_suffix(1);
    }
    if (!line.empty()) line += ' ';
    line.append(trimmed);
    if (continued) continue;
    if (!trim(line).empty()) return true;
    line.clear();
  }
  return !trim(line).empty();
}

network parse(const std::string& text) {
  std::istringstream is(text);
  std::string model_name = "top";
  std::vector<std::string> input_names;
  std::vector<std::string> output_names;
  std::map<std::string, raw_gate> gates;
  std::vector<std::string> gate_order;

  std::string line;
  raw_gate* current = nullptr;
  bool saw_end = false;
  while (!saw_end && next_line(is, line)) {
    const std::vector<std::string> tokens = split_ws(line);
    if (tokens.empty()) continue;
    const std::string& head = tokens[0];

    if (head[0] == '.') {
      current = nullptr;
      if (head == ".model") {
        if (tokens.size() >= 2) model_name = tokens[1];
      } else if (head == ".inputs") {
        input_names.insert(input_names.end(), tokens.begin() + 1,
                           tokens.end());
      } else if (head == ".outputs") {
        output_names.insert(output_names.end(), tokens.begin() + 1,
                            tokens.end());
      } else if (head == ".names") {
        if (tokens.size() < 2)
          throw parse_error("blif: .names needs at least an output signal");
        const std::string& out = tokens.back();
        if (gates.contains(out))
          throw parse_error("blif: signal defined twice: " + out);
        raw_gate g;
        g.fanin_names.assign(tokens.begin() + 1, tokens.end() - 1);
        gate_order.push_back(out);
        current = &gates.emplace(out, std::move(g)).first->second;
      } else if (head == ".end") {
        saw_end = true;
      } else if (head == ".latch" || head == ".subckt" || head == ".gate") {
        throw parse_error("blif: unsupported construct " + head +
                          " (combinational subset only)");
      }
      continue;
    }

    if (current == nullptr)
      throw parse_error("blif: cover row outside a .names block: " + line);
    std::string cube;
    char output_value = '1';
    if (current->fanin_names.empty()) {
      if (tokens.size() != 1 || (tokens[0] != "0" && tokens[0] != "1"))
        throw parse_error("blif: bad constant row: " + line);
      output_value = tokens[0][0];
    } else {
      if (tokens.size() != 2)
        throw parse_error("blif: cover row needs cube and output: " + line);
      cube = tokens[0];
      if (cube.size() != current->fanin_names.size())
        throw parse_error("blif: cube width mismatch: " + line);
      if (tokens[1] != "0" && tokens[1] != "1")
        throw parse_error("blif: output value must be 0 or 1: " + line);
      output_value = tokens[1][0];
    }
    if (!current->cubes.empty() && current->output_polarity != output_value)
      throw parse_error("blif: mixed on-set/off-set rows in one .names");
    current->output_polarity = output_value;
    current->cubes.push_back(cube);
  }

  if (input_names.empty() && gates.empty())
    throw parse_error("blif: no .inputs or .names found");

  network net(model_name);
  std::map<std::string, int> node_of;
  for (const std::string& name : input_names) {
    if (node_of.contains(name))
      throw parse_error("blif: duplicate input " + name);
    node_of[name] = net.add_input(name);
  }

  enum class mark : char { unvisited, visiting, done };
  std::map<std::string, mark> state;
  auto emit = [&](const std::string& root, auto&& self) -> int {
    if (const auto it = node_of.find(root); it != node_of.end())
      return it->second;
    const auto git = gates.find(root);
    if (git == gates.end())
      throw parse_error("blif: undefined signal " + root);
    if (state[root] == mark::visiting)
      throw parse_error("blif: combinational cycle through " + root);
    state[root] = mark::visiting;

    const raw_gate& g = git->second;
    std::vector<int> fanins;
    fanins.reserve(g.fanin_names.size());
    for (const std::string& in : g.fanin_names)
      fanins.push_back(self(in, self));

    int node;
    if (g.output_polarity == '1') {
      std::vector<std::string> cubes = g.cubes;
      if (g.fanin_names.empty() && !cubes.empty()) cubes.assign(1, "");
      node = net.add_gate(root, fanins, cubes);
    } else {
      const int on = net.add_gate(root + "_offset", fanins, g.cubes);
      node = net.add_not(on, root);
    }
    node_of[root] = node;
    state[root] = mark::done;
    return node;
  };

  for (const std::string& name : output_names) emit(name, emit);
  for (const std::string& name : gate_order) emit(name, emit);

  for (const std::string& name : output_names) {
    const auto it = node_of.find(name);
    if (it == node_of.end())
      throw parse_error("blif: undefined output " + name);
    net.set_output(it->second, name);
  }
  return net;
}

}  // namespace reference_blif

// --- reference .xbar reader --------------------------------------------------

namespace reference_xbar {

using namespace xbar;

/// The strict number rule; std::invalid_argument reaches the same
/// "malformed number" handlers std::stoi's exceptions did.
int strict_int(const std::string& token) {
  std::size_t i = token.size() > 0 && token[0] == '-' ? 1 : 0;
  if (i == token.size()) throw std::invalid_argument("no digits");
  long long value = 0;
  for (; i < token.size(); ++i) {
    if (token[i] < '0' || token[i] > '9')
      throw std::invalid_argument("not a digit");
    value = value * 10 + (token[i] - '0');
    if (value > 2147483648LL) throw std::invalid_argument("out of range");
  }
  if (token[0] == '-') value = -value;
  if (value > 2147483647LL) throw std::invalid_argument("out of range");
  return static_cast<int>(value);
}

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
  try {
    return strict_int(token);
  } catch (const std::logic_error&) {
    throw parse_error("xbar: malformed number in: " + line);
  }
}

int var_index(const std::string& token, const std::string& line) {
  const int v = parse_int(token, line);
  if (v < 0) throw parse_error("xbar: negative variable index in: " + line);
  return v;
}

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
        design.set_input_row(strict_int(tokens[1]));
      } else if (tokens[0] == "output" && tokens.size() == 3) {
        design.add_output(strict_int(tokens[1]), tokens[2]);
      } else if (tokens[0] == "const" && tokens.size() == 3) {
        design.add_constant_output(tokens[2] == "1", tokens[1]);
      } else if (tokens[0] == "var" && tokens.size() == 3 &&
                 names != nullptr) {
        (*names)[var_index(tokens[1], in.line)] = tokens[2];
      } else if (tokens[0] == "d" && tokens.size() == 4) {
        const int r = strict_int(tokens[1]);
        const int c = strict_int(tokens[2]);
        const std::string& spec = tokens[3];
        if (spec == "on") {
          design.set_on(r, c);
        } else if (spec.size() >= 2 && (spec[0] == '+' || spec[0] == '-')) {
          design.set_literal(r, c, strict_int(spec.substr(1)),
                             spec[0] == '+');
        } else {
          throw parse_error("xbar: bad device spec " + spec);
        }
      } else {
        throw parse_error("xbar: unrecognized line: " + in.line);
      }
    } catch (const error&) {
      throw;
    } catch (const std::logic_error&) {
      throw parse_error("xbar: malformed number in: " + in.line);
    }
  }
  throw parse_error("xbar: missing " + terminator + " marker");
}

std::vector<std::string> pack_names(const std::map<int, std::string>& names) {
  std::vector<std::string> packed;
  if (!names.empty()) {
    packed.resize(static_cast<std::size_t>(names.rbegin()->first) + 1);
    for (const auto& [v, n] : names) packed[static_cast<std::size_t>(v)] = n;
  }
  return packed;
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

loaded_design read_design(const std::string& text) {
  std::istringstream is(text);
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

loaded_partitioned_design read_partitioned_design(const std::string& text) {
  std::istringstream is(text);
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
      names[var_index(tokens[1], in.line)] = tokens[2];
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
      try {
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

}  // namespace reference_xbar

// --- comparison --------------------------------------------------------------

/// A reader's answer to one text: "ok" plus a rendering of the result, or
/// the exception's kind plus its message.
struct outcome {
  std::string kind;
  std::string text;

  friend bool operator==(const outcome&, const outcome&) = default;
  friend std::ostream& operator<<(std::ostream& os, const outcome& o) {
    return os << o.kind << ": " << o.text;
  }
};

template <typename Read>
outcome run(Read&& read) {
  try {
    return {"ok", read()};
  } catch (const parse_error& e) {
    return {"parse_error", e.what()};
  } catch (const error& e) {
    return {"error", e.what()};
  } catch (const std::exception& e) {
    return {"std::exception", e.what()};
  }
}

/// Every field of every node, in order: equal renderings are node-for-node
/// equal networks.
std::string render(const frontend::network& net) {
  std::string out = "model " + net.name() + "\n";
  for (int i = 0; i < static_cast<int>(net.node_count()); ++i) {
    const frontend::network_node& n = net.node(i);
    out += n.node_kind == frontend::network_node::kind::input ? "in " : "gate ";
    out += n.name + " (";
    for (const int f : n.fanins) out += std::to_string(f) + ' ';
    out += ") [";
    for (const std::string& c : n.cubes) out += c + '|';
    out += "]\n";
  }
  for (const frontend::network_output& o : net.outputs())
    out += "out " + std::to_string(o.node) + ' ' + o.name + '\n';
  return out;
}

std::string render(const xbar::loaded_design& d) {
  std::ostringstream os;
  xbar::write_design(d.design, os, d.variable_names);
  return os.str();
}

std::string render(const xbar::loaded_partitioned_design& d) {
  std::ostringstream os;
  xbar::write_partitioned_design(d.design, os, d.variable_names);
  return os.str();
}

std::string write(const frontend::network& net) {
  std::ostringstream os;
  frontend::write_blif(net, os);
  return os.str();
}

/// Small benchgen circuits (no deep chains: the reference recurses).
std::vector<frontend::network> small_circuits() {
  using namespace frontend;
  return {make_ripple_adder(3), make_alu(2),         make_parity(6, 2),
          make_comparator(3),   make_mux_tree(2),    make_multiplier(2),
          make_decoder(3),      make_priority_encoder(6), make_arbiter(4),
          make_int2float(4),    make_router(2),      make_ctrl(3, 6),
          make_cavlc_like(4, 5), make_i2c_like(4)};
}

/// Hand-written netlists exercising what write_blif never emits: off-set
/// covers, constants, comments, continuations, out-of-order gates.
std::vector<std::string> handwritten_blif() {
  return {
      ".model nand\n.inputs a b\n.outputs f\n.names a b f\n11 0\n.end\n",
      ".model consts\n.inputs a\n.outputs one zero z0\n.names one\n1\n"
      ".names zero\n.names z0\n0\n0\n.end\n",
      ".model c # trailing comment\n.inputs a \\\n b\n.outputs f\n"
      "# a whole comment line\n.names a b f\n11 1\n.end\n",
      ".model ooo\n.inputs a b\n.outputs f\n.names t1 t2 f\n11 1\n"
      ".names a t1\n0 1\n.names b t2\n0 1\n.end\n",
      ".model ws\r\n.inputs\ta  b\r\n.outputs f g\n.names a b f\n1- 1\n-1 1\n"
      ".names a g\n0 0\n.default_input_arrival 0 0\n.end\ntrailing text\n",
  };
}

std::vector<std::string> blif_corpus() {
  std::vector<std::string> corpus = handwritten_blif();
  for (const frontend::network& net : small_circuits())
    corpus.push_back(write(net));
  const std::filesystem::path dir =
      std::filesystem::path(COMPACT_SOURCE_DIR) / "benchmarks";
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    if (entry.path().extension() == ".blif") files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  for (const std::filesystem::path& file : files) {
    std::ifstream is(file);
    corpus.push_back(read_stream(is));
  }
  return corpus;
}

/// Designs of the small circuits: version 1 unpartitioned, and version 2
/// under a small array budget for every other circuit.
std::vector<std::string> synthesized_designs() {
  std::vector<std::string> corpus;
  const std::vector<frontend::network> circuits = small_circuits();
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    api::request_v1 request;
    request.source.text = write(circuits[i]);
    request.synthesis.labeler = "oct";
    request.synthesis.time_limit_seconds = 5.0;
    const api::response_v1 plain = api::handle(request);
    EXPECT_TRUE(plain.ok) << plain.error_message;
    corpus.push_back(plain.design_text);
    if (i % 2 == 0) {
      request.synthesis.partition = true;
      request.synthesis.max_rows = 6;
      request.synthesis.max_columns = 6;
      const api::response_v1 split = api::handle(request);
      EXPECT_TRUE(split.ok) << split.error_message;
      corpus.push_back(split.design_text);
    }
  }
  return corpus;
}

/// The synthesized designs plus hand-written documents with comments,
/// names, gaps in the names and lines out of the writer's order.
const std::vector<std::string>& xbar_corpus() {
  static const std::vector<std::string> corpus = [] {
    std::vector<std::string> texts = {
        "xbar 1  # tiny AND\ndim 2 1\ninput 1\noutput 0 f\nconst k 1\n"
        "var 0 a\nvar 1 b\n\nd 0 0 +1\nd 1 0 -0\nend\n",
        "xbar 2\narrays 2\nvar 0 a\nvar 2 c\narray 0\ndim 2 2\ninput 1\n"
        "d 1 0 +0\nd 0 0 on\nendarray\narray 1\ndim 1 2\noutput 0 f\n"
        "const z 0\nd 0 1 -2\nendarray\nconnect 0 row 0 1 col 1\nend\n",
    };
    for (std::string& text : synthesized_designs())
      texts.push_back(std::move(text));
    return texts;
  }();
  return corpus;
}

/// One random edit: truncation, byte flips and inserts biased toward the
/// characters the readers treat specially, span deletes and copies, line
/// duplicates, and whole tokens or lines from `inserts`.
std::string mutate(std::string text, rng& random,
                   const std::vector<std::string>& inserts) {
  static const std::string specials = " \t\r\n#\\.-+01x9";
  const auto pos = [&] { return random.next_below(text.size() + 1); };
  for (int edits = 1 + static_cast<int>(random.next_below(3)); edits > 0;
       --edits) {
    switch (random.next_below(8)) {
      case 0:
        text.resize(pos());
        break;
      case 1:
        if (!text.empty())
          text[random.next_below(text.size())] =
              random.next_bool()
                  ? specials[random.next_below(specials.size())]
                  : static_cast<char>(random.next_below(256));
        break;
      case 2:
        text.insert(pos(), 1, specials[random.next_below(specials.size())]);
        break;
      case 3: {
        const std::size_t at = pos();
        text.erase(at, 1 + random.next_below(20));
        break;
      }
      case 4: {
        const std::size_t from = pos();
        const std::string span = text.substr(from, 1 + random.next_below(60));
        text.insert(pos(), span);
        break;
      }
      case 5: {
        const std::size_t at = text.rfind('\n', pos());
        const std::size_t begin = at == std::string::npos ? 0 : at + 1;
        const std::size_t end = text.find('\n', begin);
        const std::string line = text.substr(
            begin, end == std::string::npos ? end : end - begin + 1);
        text.insert(begin, line);
        break;
      }
      case 6:
      case 7: {
        // Replace the token at a random position, or insert a line.
        const std::string& piece = inserts[random.next_below(inserts.size())];
        std::size_t at = pos();
        if (random.next_bool()) {
          while (at < text.size() && text[at] != ' ' && text[at] != '\n') ++at;
          std::size_t begin = at;
          while (begin > 0 && text[begin - 1] != ' ' && text[begin - 1] != '\n')
            --begin;
          text.replace(begin, at - begin, piece);
        } else {
          const std::size_t line = text.find('\n', at);
          text.insert(line == std::string::npos ? text.size() : line + 1,
                      piece + "\n");
        }
        break;
      }
    }
  }
  return text;
}

constexpr int kMutantsPerFormat = 20000;

TEST(TextReaderTest, BlifMatchesReferenceOnMutatedCorpus) {
  const std::vector<std::string> corpus = blif_corpus();
  const std::vector<std::string> inserts = {
      ".names a b f", ".names f",  "11 0",   "1 1",     "0",       "-- 1",
      ".end",         ".latch a q", ".inputs a", ".outputs f", "\\", "#",
      "1x 1",         ".model",   "a",      "2 1"};
  rng random(24);
  int accepted = 0;
  for (int trial = 0; trial < kMutantsPerFormat; ++trial) {
    const std::string& source = corpus[random.next_below(corpus.size())];
    const std::string text = mutate(source, random, inserts);
    const outcome expected =
        run([&] { return render(reference_blif::parse(text)); });
    const outcome actual =
        run([&] { return render(frontend::parse_blif(text)); });
    ASSERT_EQ(actual, expected) << "trial " << trial << ":\n" << text;
    accepted += expected.kind == "ok" ? 1 : 0;
  }
  // Both verdicts occur often enough for the comparison to mean something.
  EXPECT_GT(accepted, kMutantsPerFormat / 20);
  EXPECT_LT(accepted, kMutantsPerFormat - kMutantsPerFormat / 20);
}

TEST(TextReaderTest, XbarMatchesReferenceOnMutatedCorpus) {
  const std::vector<std::string>& corpus = xbar_corpus();
  const std::vector<std::string> inserts = {
      "-1",       "+3",       "3x",          "2147483648", "-2147483648",
      "007",      "-0",       "1e1",         "-+1",        "+-1",
      "var -1 x", "var 3 y",  "d 0 0 +5",    "d 0 0 -0",   "d 0 0 on",
      "array 1",  "endarray", "connect 0 row 0 1 col 0",   "output 0 z",
      "const k 1", "input 0", "end",         "arrays 2",   "dim 2 2"};
  rng random(2024);
  int accepted = 0;
  for (int trial = 0; trial < kMutantsPerFormat; ++trial) {
    const std::string& source = corpus[random.next_below(corpus.size())];
    const std::string text = mutate(source, random, inserts);
    const outcome expected = run(
        [&] { return render(reference_xbar::read_partitioned_design(text)); });
    const outcome actual =
        run([&] { return render(xbar::read_partitioned_design(text)); });
    ASSERT_EQ(actual, expected) << "trial " << trial << ":\n" << text;
    const outcome expected_v1 =
        run([&] { return render(reference_xbar::read_design(text)); });
    const outcome actual_v1 =
        run([&] { return render(xbar::read_design(text)); });
    ASSERT_EQ(actual_v1, expected_v1) << "trial " << trial << ":\n" << text;
    accepted += expected.kind == "ok" ? 1 : 0;
  }
  EXPECT_GT(accepted, kMutantsPerFormat / 20);
  EXPECT_LT(accepted, kMutantsPerFormat - kMutantsPerFormat / 20);
}

TEST(TextReaderTest, CorpusParsesExactlyAsTheReference) {
  for (const std::string& text : blif_corpus())
    EXPECT_EQ(run([&] { return render(frontend::parse_blif(text)); }),
              run([&] { return render(reference_blif::parse(text)); }));
  for (const std::string& text : xbar_corpus())
    EXPECT_EQ(
        run([&] { return render(xbar::read_partitioned_design(text)); }),
        run([&] {
          return render(reference_xbar::read_partitioned_design(text));
        }));
}

// --- round trips -------------------------------------------------------------

/// The network with gates listed by name, each with its fanins' names:
/// equal for networks that differ only in the order of their gates.
std::string render_by_name(const frontend::network& net) {
  std::vector<std::string> gates;
  std::string out = "model " + net.name() + "\n";
  for (int i = 0; i < static_cast<int>(net.node_count()); ++i) {
    const frontend::network_node& n = net.node(i);
    if (n.node_kind == frontend::network_node::kind::input) {
      out += "in " + n.name + '\n';
      continue;
    }
    std::string gate = "gate " + n.name + " (";
    for (const int f : n.fanins) gate += net.node(f).name + ' ';
    gate += ") [";
    for (const std::string& c : n.cubes) gate += c + '|';
    gates.push_back(gate + "]\n");
  }
  std::sort(gates.begin(), gates.end());
  for (const std::string& gate : gates) out += gate;
  for (const frontend::network_output& o : net.outputs())
    out += "out " + o.name + ' ' + net.node(o.node).name + '\n';
  return out;
}

// parse(write(n)) is n up to gate order (the reader emits gates depth first
// from the outputs), and one more write/parse round changes no byte.
TEST(TextReaderTest, BlifRoundTripsBenchgenCircuits) {
  std::vector<frontend::network> circuits = small_circuits();
  for (const frontend::benchmark_spec& spec : frontend::benchmark_suite())
    circuits.push_back(spec.net);
  for (const frontend::network& net : circuits) {
    const frontend::network reparsed = frontend::parse_blif(write(net));
    EXPECT_EQ(render_by_name(reparsed), render_by_name(net)) << net.name();
    const std::string text = write(reparsed);
    EXPECT_EQ(write(frontend::parse_blif(text)), text) << net.name();
  }
}

TEST(TextReaderTest, XbarRoundTripsV1AndV2Designs) {
  int v1 = 0;
  int v2 = 0;
  for (const std::string& text : synthesized_designs()) {
    const xbar::loaded_partitioned_design loaded =
        xbar::read_partitioned_design(text);
    std::ostringstream os;
    xbar::write_partitioned_design(loaded.design, os, loaded.variable_names);
    EXPECT_EQ(os.str(), text);
    if (text.rfind("xbar 1\n", 0) == 0) {
      ++v1;
      const xbar::loaded_design single = xbar::read_design(text);
      std::ostringstream again;
      xbar::write_design(single.design, again, single.variable_names);
      EXPECT_EQ(again.str(), text);
    } else {
      ++v2;
    }
  }
  EXPECT_GE(v1, 10);
  EXPECT_GE(v2, 3);
}

// --- stream overloads --------------------------------------------------------

TEST(TextReaderTest, StreamOverloadsReadTheWholeText) {
  const std::string blif =
      ".model m\n.inputs a b\n.outputs f\n.names a b f\n11 1\n.end\n";
  std::istringstream is(blif);
  EXPECT_EQ(render(frontend::parse_blif(is)),
            render(frontend::parse_blif(blif)));
  const std::string design = xbar_corpus()[1];
  std::istringstream ds(design);
  EXPECT_EQ(render(xbar::read_partitioned_design(ds)),
            render(xbar::read_partitioned_design(design)));
}

}  // namespace
}  // namespace compact
