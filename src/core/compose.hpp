// Diagonal composition of per-output crossbar blocks (Figure 8a).
//
// The prior multi-output strategy synthesizes one crossbar per output and
// stacks them corner-to-corner, merging every block's '1'-terminal input
// wordline into a single shared bottom wordline. Used by both the COMPACT
// separate-ROBDD mode and the staircase baseline.
#pragma once

#include <vector>

#include "xbar/crossbar.hpp"

namespace compact::core {

/// Compose blocks along the diagonal with a shared input row. Blocks with
/// zero columns (constant-only) contribute just their constant outputs.
[[nodiscard]] xbar::crossbar compose_diagonal(
    const std::vector<const xbar::crossbar*>& blocks);

}  // namespace compact::core
