// The benchmark's own reading of a served `.xbar` design (format version 1)
// and its own flow-based evaluation: an output senses 1 exactly when a path
// of conducting junctions joins its wordline to the input wordline. Nothing
// here calls the program, so a response is checked against a reference the
// program cannot influence.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "netgen.hpp"

namespace perfbench {

struct xbar_device {
  int row = 0;
  int col = 0;
  int var = -1;          // -1: always on
  bool positive = true;  // conducts when var == positive
};

struct xbar_design {
  int rows = 0;
  int cols = 0;
  int input_row = -1;
  std::vector<std::pair<std::string, int>> outputs;  // name, row
  std::vector<std::pair<std::string, bool>> constants;
  std::vector<xbar_device> devices;
};

/// Parse a version-1 document; nullopt (with `error` set) when malformed.
[[nodiscard]] std::optional<xbar_design> parse_xbar(const std::string& text,
                                                    std::string& error);

/// Sense `output_names` for 64 assignments at once (bit b of words[i] is
/// input i in assignment b); an output the design lacks senses 0.
[[nodiscard]] std::vector<std::uint64_t> sense(
    const xbar_design& d, const std::vector<std::uint64_t>& words,
    const std::vector<std::string>& output_names);

/// Check `d` against `net`: every netlist output must be declared exactly
/// once (as an output row or a constant) and nothing else, and each must
/// match exhaustively up to `exhaustive_inputs` inputs, otherwise on
/// `samples` seeded random assignments (64 per word). Returns an empty
/// string when it does, else a description of the first mismatch.
[[nodiscard]] std::string check_design(const xbar_design& d,
                                       const netlist& net,
                                       int exhaustive_inputs, int samples,
                                       std::uint64_t seed);

}  // namespace perfbench
