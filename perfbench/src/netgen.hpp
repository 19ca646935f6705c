// Benchmark-owned circuit generators and the reference evaluator.
//
// Every netlist the benchmark sends comes from this file, driven only by the
// seed on the command line, so a change to the program (including its own
// frontend/benchgen generators or util/rng) can never change the workload.
// The same gate list that is written as BLIF text is evaluated gate by gate
// here; that evaluation is the reference every synthesize and evaluate
// response is checked against.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// splitmix64: tiny, seedable, and owned by the benchmark.
class prng {
 public:
  explicit prng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound); bound > 0.
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }

 private:
  std::uint64_t state_;
};

enum class gate_kind { and_, or_, xor_, mux, not_ };

/// One gate over earlier signals. Signals 0..inputs-1 are the primary
/// inputs; gate i drives signal inputs.size() + i. and_/or_ take any number
/// of literals (`neg[k]` inverts fan-in k); mux reads (select, if0, if1).
struct gate {
  gate_kind kind = gate_kind::and_;
  std::vector<int> in;
  std::vector<bool> neg;
};

struct netlist {
  std::string name;
  std::vector<std::string> inputs;
  std::vector<gate> gates;
  std::vector<std::pair<std::string, int>> outputs;

  int add_input(const std::string& input_name);
  int add(gate_kind kind, std::vector<int> in, std::vector<bool> neg = {});
  int and_(std::vector<int> in, std::vector<bool> neg = {}) {
    return add(gate_kind::and_, std::move(in), std::move(neg));
  }
  int or_(std::vector<int> in, std::vector<bool> neg = {}) {
    return add(gate_kind::or_, std::move(in), std::move(neg));
  }
  int xor_(int a, int b) { return add(gate_kind::xor_, {a, b}); }
  int not_(int a) { return add(gate_kind::not_, {a}); }
  int mux(int select, int if0, int if1) {
    return add(gate_kind::mux, {select, if0, if1});
  }
  void output(const std::string& output_name, int signal) {
    outputs.emplace_back(output_name, signal);
  }

  /// BLIF text: one .names block per gate plus a buffer per output.
  [[nodiscard]] std::string to_blif() const;

  /// Evaluate 64 assignments at once: bit b of words[i] is input i's value
  /// in assignment b. Returns one word per output, in `outputs` order.
  [[nodiscard]] std::vector<std::uint64_t> evaluate(
      const std::vector<std::uint64_t>& words) const;
};

/// One generated circuit: `family` and `size` (the family's size knob, plus
/// `size2` for two-parameter families) name the instance; `variant` is the
/// seed that picked its random structure.
struct circuit {
  std::string family;
  int size = 0;
  int size2 = 0;
  std::uint64_t variant = 0;
  netlist net;
  std::string blif;
  [[nodiscard]] std::string label() const;
};

/// True when some output is the same for every assignment. Checked
/// exhaustively; circuits with more than 16 inputs are never reported.
[[nodiscard]] bool has_constant_output(const netlist& net);

/// Generate one member of `family` ("ctrl", "i2c", "cavlc", "router",
/// "comparator", "adder", "arbiter", "int2float", "priority", "parity",
/// "decoder", "mux"). Throws std::invalid_argument on an unknown family.
[[nodiscard]] circuit generate(const std::string& family, int size, int size2,
                               std::uint64_t variant);

}  // namespace perfbench
