// Crossbar design serialization.
//
// A plain-text `.xbar` format so synthesized designs can be saved by the
// CLI, diffed in experiments, and reloaded for evaluation without
// re-running the NP-hard labeling step.
//
//   xbar 1            # format version
//   dim R C
//   input ROW
//   output ROW NAME   # repeated
//   const NAME 0|1    # constant outputs, repeated
//   var INDEX NAME    # optional variable names, repeated
//   d ROW COL on      # devices: on / +VAR / -VAR (off junctions omitted)
//   d ROW COL +3
//   end
//
// Format version 2 carries a partitioned (multi-array) design: the header
// is followed by a mandatory `arrays K` count, optional global `var` lines,
// K array blocks (each the version-1 body between `array I` and `endarray`),
// and the inter-array connection list:
//
//   xbar 2
//   arrays 2
//   var 0 a
//   array 0
//   dim R C
//   input ROW
//   output ROW NAME
//   const NAME 0|1
//   d ROW COL +0
//   endarray
//   array 1
//   ...
//   endarray
//   connect 0 row 3 1 col 0   # weld wires into one electrical net
//   end
//
// Single-array designs keep writing version 1, so unpartitioned output is
// byte-identical to what pre-partitioning builds produced; the version-2
// reader accepts both versions.
//
// Reading rules, both versions: tokens are separated by spaces and tabs, and
// `#` starts a comment. A number is a whole token: an optional `-`, then
// decimal digits, within `int` (so `+3`, `3x` and ` 1e1` are malformed,
// not 3 and 1). A `var` index must not be negative. Both are parse_errors.
// A row, column or variable outside the design passes the reader and fails
// the crossbar's own check (compact::error), as does any device beyond the
// assignment when the design is evaluated.
#pragma once

#include <istream>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "xbar/crossbar.hpp"
#include "xbar/partitioned.hpp"

namespace compact::xbar {

/// Write `design` (with optional variable names) to `os`.
void write_design(const crossbar& design, std::ostream& os,
                  const std::vector<std::string>& variable_names = {});

struct loaded_design {
  crossbar design;
  std::vector<std::string> variable_names;  // may be empty
};

/// Parse a version-1 `.xbar` text in one pass; throws parse_error on
/// malformed input (including version-2 headers — multi-array consumers use
/// read_partitioned_design).
[[nodiscard]] loaded_design read_design(std::string_view text);

/// Read all of `is`, then parse it as above.
[[nodiscard]] loaded_design read_design(std::istream& is);

/// Write a partitioned design: format version 2, except that a design of
/// one fragment with no connections degrades to the version-1 text of
/// write_design, byte for byte.
void write_partitioned_design(const partitioned_design& design,
                              std::ostream& os,
                              const std::vector<std::string>& variable_names =
                                  {});

struct loaded_partitioned_design {
  partitioned_design design;
  std::vector<std::string> variable_names;  // may be empty
};

/// Parse either format version: version 1 loads as a single-fragment
/// design, version 2 as written by write_partitioned_design. Throws
/// parse_error on malformed input.
[[nodiscard]] loaded_partitioned_design read_partitioned_design(
    std::string_view text);

/// Read all of `is`, then parse it as above.
[[nodiscard]] loaded_partitioned_design read_partitioned_design(
    std::istream& is);

/// Graphviz view of the design as the bipartite wordline/bitline graph:
/// one node per nanowire, one labeled edge per programmed device. Input
/// and output wordlines are highlighted.
void write_design_dot(const crossbar& design, std::ostream& os,
                      const std::vector<std::string>& variable_names = {});

}  // namespace compact::xbar
