// Validity of crossbar designs, decided symbolically.
//
// The paper's definition of validity (Section III): for every assignment of
// the inputs there is a conducting input-to-output path exactly when the
// function evaluates to true. Rather than enumerating assignments, this
// module expresses the set of wordlines reachable from the input wordline as
// one BDD per nanowire over the input variables, computed as the least
// fixpoint of
//
//   col[c]  =  OR_r ( row[r] AND device(r, c) )
//   row[r]  =  OR_c ( col[c] AND device(r, c) )      (input row pinned to 1)
//
// which mirrors the BFS in xbar/evaluate.cpp but over all 2^n assignments
// at once. The extracted function of an output wordline is then compared
// against the spec root by canonical ROBDD handle equality — an exact
// equivalence check whose cost scales with BDD sizes, not with 2^n.
//
// validate() is the one validity verdict (the API's validate pass and
// `compact_cli validate`); the analyzer's EQV001 and PAR003 call
// check_symbolic_equivalence and check_partitioned_equivalence directly.
// The paper's SPICE validation plays the analog counterpart — see
// src/analog.
#pragma once

#include <string>
#include <vector>

#include "bdd/manager.hpp"
#include "xbar/crossbar.hpp"
#include "xbar/partitioned.hpp"

namespace compact::xbar {

/// The symbolic device function: false for off, true for on, x / !x for
/// literal devices. Throws compact::error when the device's variable is out
/// of range for `m`.
[[nodiscard]] bdd::node_handle device_function(const device& d,
                                               bdd::manager& m);

struct extraction_result {
  /// row_function[r] is true under exactly the assignments that make
  /// wordline r reachable from the input wordline.
  std::vector<bdd::node_handle> row_function;
  /// Same for bitlines (exposed for diagnostics; a bitline whose function
  /// is constant false is electrically dead).
  std::vector<bdd::node_handle> column_function;
  int fixpoint_iterations = 0;
};

/// Extract every nanowire's reachability function into `m`. `m` must
/// support every variable programmed on the design's devices.
[[nodiscard]] extraction_result extract_sneak_functions(const crossbar& design,
                                                        bdd::manager& m);

/// Stitched extraction over a partitioned design: the same fixpoint, but
/// over the union conduction graph of every fragment where each bridge is a
/// constant-true link between its two wires. Indexing is per fragment.
struct stitched_extraction_result {
  /// row_function[f][r]: reachability of fragment f's wordline r from the
  /// input net.
  std::vector<std::vector<bdd::node_handle>> row_function;
  std::vector<std::vector<bdd::node_handle>> column_function;
  int fixpoint_iterations = 0;
};

/// Extract every fragment's nanowire reachability functions into `m`.
/// Exactly one fragment must declare the input wordline.
[[nodiscard]] stitched_extraction_result extract_stitched_functions(
    const partitioned_design& design, bdd::manager& m);

// --- equivalence against a specification -----------------------------------

struct output_equivalence {
  std::string name;
  bool found = false;       // design exposes this output at all
  bool equivalent = false;  // every binding of the name == spec function
  /// A concrete disagreeing assignment (indexed by variable) when
  /// found && !equivalent; empty otherwise.
  std::vector<bool> counterexample;
};

struct equivalence_report {
  bool equivalent = true;  // all spec outputs found and equivalent
  std::vector<output_equivalence> outputs;  // parallel to the spec roots
  int fixpoint_iterations = 0;
  /// Scratch-manager node table size after extraction.
  std::size_t extraction_nodes = 0;
};

/// Check the design's sneak-path functions against the spec BDD roots
/// (named by `names`, parallel) without evaluating a single assignment.
/// Every sensed port and constant bound to a spec name must equal its root.
/// Both the design's device literals and the spec roots must speak the same
/// variable numbering — run this before any remap_variables.
[[nodiscard]] equivalence_report check_symbolic_equivalence(
    const crossbar& design, const bdd::manager& spec,
    const std::vector<bdd::node_handle>& roots,
    const std::vector<std::string>& names);

/// Same contract for a partitioned design: each spec output is resolved on
/// every fragment that binds it, with reachability computed over the
/// stitched conduction graph.
[[nodiscard]] equivalence_report check_partitioned_equivalence(
    const partitioned_design& design, const bdd::manager& spec,
    const std::vector<bdd::node_handle>& roots,
    const std::vector<std::string>& names);

// --- the validity verdict --------------------------------------------------

/// Decide the design's validity against the spec roots. Throws
/// compact::error when a device reads a variable at or beyond
/// `input_count`, exactly as evaluating the design would.
[[nodiscard]] equivalence_report validate(
    const crossbar& design, const bdd::manager& spec,
    const std::vector<bdd::node_handle>& roots,
    const std::vector<std::string>& names, int input_count);

/// Same contract for a partitioned design. One with more than one array or
/// any bridge goes to check_partitioned_equivalence; a single bare array to
/// check_symbolic_equivalence.
[[nodiscard]] equivalence_report validate(
    const partitioned_design& design, const bdd::manager& spec,
    const std::vector<bdd::node_handle>& roots,
    const std::vector<std::string>& names, int input_count);

/// The verdict as text: `PASS (symbolic, N fixpoint iterations)` (or FAIL),
/// then one line per failing output — "output 'f' differs from its
/// specification under assignment 0110" or "output 'f' is missing".
[[nodiscard]] std::string verdict_text(const equivalence_report& report);

}  // namespace compact::xbar
