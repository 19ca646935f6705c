#include "xbar_ref.hpp"

#include <algorithm>
#include <map>
#include <sstream>

namespace perfbench {

std::optional<xbar_design> parse_xbar(const std::string& text,
                                      std::string& error) {
  xbar_design d;
  std::istringstream in(text);
  std::string line;
  bool header = false, ended = false;
  while (std::getline(in, line)) {
    if (const auto hash = line.find('#'); hash != std::string::npos)
      line.erase(hash);
    std::istringstream tok(line);
    std::string key;
    if (!(tok >> key)) continue;
    if (!header) {
      int version = 0;
      if (key != "xbar" || !(tok >> version) || version != 1) {
        error = "not an xbar version-1 document";
        return std::nullopt;
      }
      header = true;
      continue;
    }
    bool ok = true;
    if (key == "dim") {
      ok = static_cast<bool>(tok >> d.rows >> d.cols) && d.rows > 0 && d.cols >= 0;
    } else if (key == "input") {
      ok = static_cast<bool>(tok >> d.input_row);
    } else if (key == "output") {
      std::string name;
      int row = -1;
      ok = static_cast<bool>(tok >> row >> name);
      d.outputs.emplace_back(name, row);
    } else if (key == "const") {
      std::string name;
      int value = 0;
      ok = static_cast<bool>(tok >> name >> value);
      d.constants.emplace_back(name, value == 1);
    } else if (key == "var") {
      continue;
    } else if (key == "d") {
      xbar_device dev;
      std::string spec;
      ok = static_cast<bool>(tok >> dev.row >> dev.col >> spec);
      if (ok && spec != "on") {
        ok = spec.size() >= 2 && (spec[0] == '+' || spec[0] == '-');
        if (ok) {
          dev.positive = spec[0] == '+';
          const std::string digits = spec.substr(1);
          ok = digits.find_first_not_of("0123456789") == std::string::npos &&
               digits.size() <= 9;
          if (ok) dev.var = std::stoi(digits);
        }
      }
      ok = ok && dev.row >= 0 && dev.row < d.rows && dev.col >= 0 &&
           dev.col < d.cols;
      d.devices.push_back(dev);
    } else if (key == "end") {
      ended = true;
      break;
    } else {
      ok = false;
    }
    if (!ok) {
      error = "bad line: " + line;
      return std::nullopt;
    }
  }
  if (!ended) {
    error = "missing end";
    return std::nullopt;
  }
  if (d.input_row < 0 || d.input_row >= d.rows) {
    error = "bad input row";
    return std::nullopt;
  }
  for (const auto& [name, row] : d.outputs)
    if (row < 0 || row >= d.rows) {
      error = "bad output row for " + name;
      return std::nullopt;
    }
  return d;
}

std::vector<std::uint64_t> sense(const xbar_design& d,
                                 const std::vector<std::uint64_t>& words,
                                 const std::vector<std::string>& output_names) {
  // Fixpoint over the devices: a wordline or bitline is reached in
  // assignment b once some conducting junction joins it to a reached wire.
  std::vector<std::uint64_t> row(static_cast<std::size_t>(d.rows), 0);
  std::vector<std::uint64_t> col(static_cast<std::size_t>(d.cols), 0);
  row[static_cast<std::size_t>(d.input_row)] = ~std::uint64_t{0};
  std::vector<std::uint64_t> conducts;
  conducts.reserve(d.devices.size());
  for (const xbar_device& dev : d.devices) {
    if (dev.var < 0) {
      conducts.push_back(~std::uint64_t{0});
    } else {
      const std::uint64_t x = dev.var < static_cast<int>(words.size())
                                  ? words[static_cast<std::size_t>(dev.var)]
                                  : 0;
      conducts.push_back(dev.positive ? x : ~x);
    }
  }
  for (bool changed = true; changed;) {
    changed = false;
    for (std::size_t i = 0; i < d.devices.size(); ++i) {
      std::uint64_t& r = row[static_cast<std::size_t>(d.devices[i].row)];
      std::uint64_t& c = col[static_cast<std::size_t>(d.devices[i].col)];
      const std::uint64_t joined = (r | c) & conducts[i];
      if ((joined & ~r) != 0 || (joined & ~c) != 0) {
        r |= joined;
        c |= joined;
        changed = true;
      }
    }
  }
  std::vector<std::uint64_t> out;
  for (const std::string& name : output_names) {
    std::uint64_t value = 0;  // a missing output senses 0
    for (const auto& [o, r] : d.outputs)
      if (o == name) value = row[static_cast<std::size_t>(r)];
    for (const auto& [o, v] : d.constants)
      if (o == name) value = v ? ~std::uint64_t{0} : 0;
    out.push_back(value);
  }
  return out;
}

std::string check_design(const xbar_design& d, const netlist& net,
                         int exhaustive_inputs, int samples,
                         std::uint64_t seed) {
  const int n = static_cast<int>(net.inputs.size());
  std::vector<std::string> names;
  for (const auto& [o, s] : net.outputs) names.push_back(o);
  // Every netlist output is exactly one output row or constant, and the
  // design declares nothing else.
  std::map<std::string, int> declared;
  for (const auto& [o, r] : d.outputs) ++declared[o];
  for (const auto& [o, v] : d.constants) ++declared[o];
  for (const std::string& name : names) {
    const auto it = declared.find(name);
    if (it == declared.end()) return "output " + name + " is missing from the design";
    if (it->second > 1) return "output " + name + " is declared twice";
  }
  if (declared.size() != names.size())
    return "the design declares outputs the netlist does not have";
  prng r(seed);
  const bool exhaustive = n <= exhaustive_inputs;
  const std::uint64_t total = exhaustive ? (std::uint64_t{1} << n) : 0;
  const std::uint64_t words_needed =
      exhaustive ? std::max<std::uint64_t>(1, total / 64)
                 : static_cast<std::uint64_t>((samples + 63) / 64);
  for (std::uint64_t w = 0; w < words_needed; ++w) {
    std::vector<std::uint64_t> in(static_cast<std::size_t>(n), 0);
    std::uint64_t valid = ~std::uint64_t{0};
    if (exhaustive) {
      for (int b = 0; b < 64; ++b) {
        const std::uint64_t a = w * 64 + static_cast<std::uint64_t>(b);
        if (a >= total) {
          valid &= ~(std::uint64_t{1} << b);
          continue;
        }
        for (int i = 0; i < n; ++i)
          if ((a >> i) & 1) in[static_cast<std::size_t>(i)] |= std::uint64_t{1} << b;
      }
    } else {
      for (auto& word : in) word = r.next();
    }
    const std::vector<std::uint64_t> want = net.evaluate(in);
    const std::vector<std::uint64_t> got = sense(d, in, names);
    for (std::size_t o = 0; o < names.size(); ++o)
      if (((want[o] ^ got[o]) & valid) != 0)
        return "output " + names[o] + " differs from the reference netlist";
  }
  return {};
}

}  // namespace perfbench
