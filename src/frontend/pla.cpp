#include "frontend/pla.hpp"

#include <sstream>
#include <vector>

#include "util/strings.hpp"

namespace compact::frontend {
namespace {

/// Strictly positive count after a .i/.o directive. std::stoi alone would
/// leak std::invalid_argument / std::out_of_range for garbage like ".i abc"
/// or ".i 99999999999999", breaking the parser's parse_error contract.
int parse_count(const std::string& text, const std::string& directive) {
  std::size_t consumed = 0;
  int value = 0;
  try {
    value = std::stoi(text, &consumed);
  } catch (const std::exception&) {
    throw parse_error("pla: " + directive + " expects a number, got '" +
                      text + "'");
  }
  if (consumed != text.size())
    throw parse_error("pla: " + directive + " expects a number, got '" +
                      text + "'");
  if (value <= 0)
    throw parse_error("pla: " + directive + " must be positive, got '" +
                      text + "'");
  return value;
}

}  // namespace

network parse_pla(std::istream& is) {
  int num_inputs = -1;
  int num_outputs = -1;
  std::vector<std::string> input_labels;
  std::vector<std::string> output_labels;
  std::vector<std::pair<std::string, std::string>> rows;  // (cube, outputs)

  std::string line;
  while (std::getline(is, line)) {
    if (const auto hash = line.find('#'); hash != std::string::npos)
      line.erase(hash);
    const std::vector<std::string> tokens = split_ws(line);
    if (tokens.empty()) continue;

    if (tokens[0][0] == '.') {
      if (tokens[0] == ".i") {
        if (tokens.size() != 2) throw parse_error("pla: malformed .i");
        num_inputs = parse_count(tokens[1], ".i");
      } else if (tokens[0] == ".o") {
        if (tokens.size() != 2) throw parse_error("pla: malformed .o");
        num_outputs = parse_count(tokens[1], ".o");
      } else if (tokens[0] == ".ilb") {
        input_labels.assign(tokens.begin() + 1, tokens.end());
      } else if (tokens[0] == ".ob") {
        output_labels.assign(tokens.begin() + 1, tokens.end());
      } else if (tokens[0] == ".e" || tokens[0] == ".end") {
        break;
      } else if (tokens[0] == ".p" || tokens[0] == ".type" ||
                 tokens[0] == ".phase" || tokens[0] == ".pair") {
        // .p is advisory; the others are accepted and ignored.
      } else {
        throw parse_error("pla: unsupported directive " + tokens[0]);
      }
      continue;
    }

    // Product-term row: input cube then output part (possibly joined).
    std::string cube, outs;
    if (tokens.size() == 2) {
      cube = tokens[0];
      outs = tokens[1];
    } else if (tokens.size() == 1 && num_inputs >= 0 && num_outputs >= 0 &&
               tokens[0].size() ==
                   static_cast<std::size_t>(num_inputs + num_outputs)) {
      cube = tokens[0].substr(0, static_cast<std::size_t>(num_inputs));
      outs = tokens[0].substr(static_cast<std::size_t>(num_inputs));
    } else {
      throw parse_error("pla: malformed row: " + line);
    }
    if (num_inputs < 0 || num_outputs < 0)
      throw parse_error("pla: row before .i/.o");
    if (cube.size() != static_cast<std::size_t>(num_inputs) ||
        outs.size() != static_cast<std::size_t>(num_outputs))
      throw parse_error("pla: row width mismatch: " + line);
    for (char c : cube)
      if (c != '0' && c != '1' && c != '-')
        throw parse_error("pla: bad cube character in: " + line);
    rows.emplace_back(cube, outs);
  }

  if (num_inputs < 0 || num_outputs < 0)
    throw parse_error("pla: missing .i or .o");

  network net("pla");
  std::vector<int> inputs;
  for (int i = 0; i < num_inputs; ++i) {
    const std::string name = i < static_cast<int>(input_labels.size())
                                 ? input_labels[i]
                                 : std::string("i").append(std::to_string(i));
    inputs.push_back(net.add_input(name));
  }

  for (int o = 0; o < num_outputs; ++o) {
    std::vector<std::string> cubes;
    for (const auto& [cube, outs] : rows)
      if (outs[static_cast<std::size_t>(o)] == '1') cubes.push_back(cube);
    const std::string name = o < static_cast<int>(output_labels.size())
                                 ? output_labels[o]
                                 : std::string("o").append(std::to_string(o));
    const int gate = net.add_gate(name, inputs, cubes);
    net.set_output(gate, name);
  }
  return net;
}

network parse_pla_string(const std::string& text) {
  std::istringstream is(text);
  return parse_pla(is);
}

}  // namespace compact::frontend
