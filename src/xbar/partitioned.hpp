// Partitioned (multi-array) crossbar designs.
//
// One logical design split across an ordered list of crossbar fragments
// plus an explicit inter-crossbar connection list. A connection welds two
// nanowires — one in each of two fragments — into a single electrical net,
// the hardware analogue of routing a wire between adjacent arrays (CONTRA,
// arXiv:2009.00881). Exactly one fragment carries the input wordline; a
// design output may be sensed on any fragment. Conduction semantics are
// unchanged: an output reads 1 iff a path of conducting devices joins its
// wordline's net to the input wordline's net, where bridged wires belong to
// the same net.
#pragma once

#include <cstdint>
#include <ostream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "xbar/crossbar.hpp"

namespace compact::xbar {

enum class wire_kind : std::uint8_t { row, column };

/// One nanowire of one fragment.
struct wire_ref {
  int array = 0;  // fragment index within the partitioned design
  wire_kind kind = wire_kind::row;
  int index = 0;  // row / column index within that fragment

  friend bool operator==(const wire_ref& a, const wire_ref& b) {
    return a.array == b.array && a.kind == b.kind && a.index == b.index;
  }
};

/// An inter-crossbar bridge: the two referenced wires are one electrical
/// net. Always conducting (it is a wire, not a device).
struct bridge {
  wire_ref a;
  wire_ref b;
};

class partitioned_design {
 public:
  partitioned_design() = default;

  void add_fragment(crossbar fragment) {
    fragments_.push_back(std::move(fragment));
  }
  /// Add a bridge; both wires must exist and must live in distinct,
  /// already-added fragments.
  void add_connection(wire_ref a, wire_ref b);

  [[nodiscard]] int array_count() const {
    return static_cast<int>(fragments_.size());
  }
  [[nodiscard]] const crossbar& fragment(int array) const;
  [[nodiscard]] crossbar& fragment(int array);
  [[nodiscard]] const std::vector<crossbar>& fragments() const {
    return fragments_;
  }
  [[nodiscard]] const std::vector<bridge>& connections() const {
    return connections_;
  }

  /// The fragment whose input wordline drives the evaluation (-1 when no
  /// fragment declares an input row).
  [[nodiscard]] int input_array() const;

  // --- aggregated size metrics (Section III, summed over fragments) -------
  [[nodiscard]] int total_semiperimeter() const;
  [[nodiscard]] long long total_area() const;
  [[nodiscard]] int active_device_count() const;
  [[nodiscard]] int max_fragment_rows() const;
  [[nodiscard]] int max_fragment_columns() const;
  /// Arrays are programmed in parallel, so latency follows the tallest
  /// fragment: max rows + 1 (Section VIII's model, per array).
  [[nodiscard]] int delay_steps() const { return max_fragment_rows() + 1; }

  /// Output names in design order: every fragment's sensed outputs in
  /// fragment order, then every fragment's constant outputs.
  [[nodiscard]] std::vector<std::string> output_names() const;

  /// ASCII rendering of every fragment plus the connection list.
  void print(std::ostream& os,
             const std::vector<std::string>& variable_names = {}) const;

 private:
  std::vector<crossbar> fragments_;
  std::vector<bridge> connections_;
};

/// Wrap a single-array design (the degenerate partition).
[[nodiscard]] partitioned_design wrap_single(crossbar design);

/// Rewrite every fragment's literal variables through `mapping`
/// (mapping[old] = new), exactly like xbar::remap_variables.
[[nodiscard]] partitioned_design remap_variables(
    const partitioned_design& design, const std::vector<int>& mapping);

// --- stitched evaluation ----------------------------------------------------

/// One flat numbering of the nanowires of a list of fragments: each
/// fragment contributes its rows, then its columns, fragments in order.
class wire_numbering {
 public:
  explicit wire_numbering(std::span<const crossbar> fragments);

  [[nodiscard]] int total() const { return start_.back(); }
  [[nodiscard]] int row(int array, int index) const {
    return start_[2 * static_cast<std::size_t>(array)] + index;
  }
  [[nodiscard]] int column(int array, int index) const {
    return start_[2 * static_cast<std::size_t>(array) + 1] + index;
  }
  /// The number of the wire `w` names; contains(w) must hold.
  [[nodiscard]] int of(const wire_ref& w) const {
    return w.kind == wire_kind::row ? row(w.array, w.index)
                                    : column(w.array, w.index);
  }
  /// Whether `w` names a wire of the fragments (a malformed bridge does
  /// not).
  [[nodiscard]] bool contains(const wire_ref& w) const;

 private:
  // Entry 2f is fragment f's first row wire, 2f + 1 its first column wire;
  // the last entry is the total.
  std::vector<int> start_;
};

/// Every bridge as two links, (wire, the wire bridged to it), sorted by
/// wire; a wire's links keep the bridges' order.
[[nodiscard]] std::vector<std::pair<int, wire_ref>> bridge_links(
    std::span<const bridge> bridges, const wire_numbering& wires);

/// The one conduction BFS, behind both reachable_rows: result[f][r] is
/// true iff row r of fragment f is reachable under `assignment` from the
/// input wordline of fragment `input`. A conducting device joins its
/// wordline and bitline; a bridge joins its two wires.
[[nodiscard]] std::vector<std::vector<bool>> reachable_rows(
    std::span<const crossbar> fragments, std::span<const bridge> bridges,
    int input, const std::vector<bool>& assignment);

/// All outputs under one assignment, ordered as output_names(): BFS over
/// the union conduction graph where bridged wires are merged into one net.
[[nodiscard]] std::vector<bool> evaluate(const partitioned_design& design,
                                         const std::vector<bool>& assignment);

/// Single output by name.
[[nodiscard]] bool evaluate_output(const partitioned_design& design,
                                   const std::vector<bool>& assignment,
                                   const std::string& output_name);

/// Per-fragment wordline reachability from the input net (exposed for
/// diagnostics and tests): result[f][r] is true iff row r of fragment f is
/// reachable under `assignment`.
[[nodiscard]] std::vector<std::vector<bool>> reachable_rows(
    const partitioned_design& design, const std::vector<bool>& assignment);

}  // namespace compact::xbar
