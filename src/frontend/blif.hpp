// BLIF (Berkeley Logic Interchange Format) reader and writer.
//
// Supports the combinational subset the benchmark suites use: .model,
// .inputs, .outputs, .names (on-set or off-set covers), .end, comments and
// line continuations. Latches and hierarchy are rejected with a parse_error;
// the COMPACT flow (like the paper's) is purely combinational.
#pragma once

#include <istream>
#include <ostream>
#include <string_view>

#include "frontend/network.hpp"

namespace compact::frontend {

/// Parse a single .model from `text` in one pass: tokens stay views of the
/// text until they become node names and cubes, and gates are emitted with
/// an explicit stack, so any netlist depth parses. Malformed input throws
/// parse_error.
[[nodiscard]] network parse_blif(std::string_view text);

/// Read all of `is`, then parse it as above.
[[nodiscard]] network parse_blif(std::istream& is);

/// Serialize `net` as BLIF. Round-trips through parse_blif.
void write_blif(const network& net, std::ostream& os);

}  // namespace compact::frontend
