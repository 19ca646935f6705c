// Partitioned-design checks (PARxxx): structural soundness of a multi-array
// design — one input array, well-formed bridges, no fragment electrically
// stranded — plus the stitched symbolic-equivalence check that replays the
// sneak-path fixpoint over the union conduction graph of every fragment.
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "verify/checks.hpp"
#include "xbar/equivalence.hpp"

namespace compact::verify {
namespace {

std::string witness_text(const std::vector<bool>& bits) {
  std::string text;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (i != 0) text += ", ";
    text += "x";
    text += std::to_string(i);
    text += bits[i] ? "=1" : "=0";
  }
  return text;
}

// PAR001 — partition structure: exactly one fragment may carry the input
// wordline (unless every output is constant), and no output name may be
// bound by two fragments.
void check_partition_structure(const artifacts& a, report& out) {
  const xbar::partitioned_design& design = *a.partitioned;
  std::vector<int> input_arrays;
  for (int f = 0; f < design.array_count(); ++f)
    if (design.fragment(f).input_row() >= 0) input_arrays.push_back(f);

  bool has_sensed_output = false;
  for (const xbar::crossbar& fragment : design.fragments())
    has_sensed_output = has_sensed_output || !fragment.outputs().empty();

  if (input_arrays.empty() && has_sensed_output) {
    diagnostic d;
    d.check_id = "PAR001";
    d.level = severity::error;
    d.message =
        "no fragment declares an input wordline; every sensed output would "
        "read constant 0";
    d.fix = "mark the fragment holding the '1' terminal with an input row";
    out.add(std::move(d));
  } else if (input_arrays.size() > 1) {
    std::string which;
    for (const int f : input_arrays)
      which += (which.empty() ? "" : ", ") + std::to_string(f);
    diagnostic d;
    d.check_id = "PAR001";
    d.level = severity::error;
    d.message = "fragments " + which +
                " all declare an input wordline; a partitioned design must "
                "drive exactly one";
    d.fix = "keep the input row only on the fragment holding the terminal";
    out.add(std::move(d));
  }

  std::unordered_set<std::string> seen;
  for (const xbar::crossbar& fragment : design.fragments()) {
    auto flag_duplicate = [&](const std::string& name) {
      if (seen.insert(name).second) return;
      diagnostic d;
      d.check_id = "PAR001";
      d.level = severity::error;
      d.message = "output '" + name + "' is bound by more than one fragment";
      d.anchors = {output_entity(name)};
      out.add(std::move(d));
    };
    for (const xbar::output_port& port : fragment.outputs())
      flag_duplicate(port.name);
    for (const auto& [name, value] : fragment.constant_outputs()) {
      (void)value;
      flag_duplicate(name);
    }
  }
}

// PAR002 — bridge validity and reachability: every connection must
// reference existing wires of two distinct fragments (the builder enforces
// this, but linted artifacts can come from anywhere), and every fragment
// must reach the input array through the bridge graph — a stranded fragment
// can never conduct, so its outputs are silently constant 0.
void check_bridges(const artifacts& a, report& out) {
  const xbar::partitioned_design& design = *a.partitioned;
  const int k = design.array_count();
  const xbar::wire_numbering wires(design.fragments());
  const auto wire_text = [](const xbar::wire_ref& w) {
    return std::string(w.kind == xbar::wire_kind::row ? "row " : "column ") +
           std::to_string(w.index) + " of array " + std::to_string(w.array);
  };

  std::vector<std::vector<int>> neighbors(static_cast<std::size_t>(k));
  for (const xbar::bridge& b : design.connections()) {
    if (!wires.contains(b.a) || !wires.contains(b.b)) {
      diagnostic d;
      d.check_id = "PAR002";
      d.level = severity::error;
      d.message = "bridge references a wire outside its fragment (" +
                  wire_text(b.a) + " <-> " + wire_text(b.b) + ")";
      out.add(std::move(d));
      continue;
    }
    if (b.a.array == b.b.array) {
      diagnostic d;
      d.check_id = "PAR002";
      d.level = severity::error;
      d.message = "bridge connects two wires of the same array " +
                  std::to_string(b.a.array) +
                  "; inter-array connections must join distinct fragments";
      out.add(std::move(d));
      continue;
    }
    neighbors[static_cast<std::size_t>(b.a.array)].push_back(b.b.array);
    neighbors[static_cast<std::size_t>(b.b.array)].push_back(b.a.array);
  }

  const int input_array = design.input_array();
  if (input_array < 0 || k <= 1) return;
  std::vector<bool> reached(static_cast<std::size_t>(k), false);
  std::vector<int> frontier{input_array};
  reached[static_cast<std::size_t>(input_array)] = true;
  while (!frontier.empty()) {
    const int f = frontier.back();
    frontier.pop_back();
    for (const int g : neighbors[static_cast<std::size_t>(f)])
      if (!reached[static_cast<std::size_t>(g)]) {
        reached[static_cast<std::size_t>(g)] = true;
        frontier.push_back(g);
      }
  }
  for (int f = 0; f < k; ++f) {
    if (reached[static_cast<std::size_t>(f)]) continue;
    diagnostic d;
    d.check_id = "PAR002";
    d.level = severity::warning;
    d.message = "array " + std::to_string(f) +
                " has no bridge path to the input array " +
                std::to_string(input_array) +
                "; its wordlines can never conduct";
    d.fix = "add a bridge connection or merge the fragment";
    out.add(std::move(d));
  }
}

// PAR003 — stitched equivalence: each spec output's reachability function
// over the union conduction graph must equal its spec BDD.
void check_stitched_equivalence(const artifacts& a, report& out) {
  std::optional<xbar::equivalence_report> extracted;
  if (a.cache == nullptr || !a.cache->equivalence)
    extracted = xbar::check_partitioned_equivalence(
        *a.partitioned, *a.spec, *a.spec_roots, *a.spec_names);
  const xbar::equivalence_report& eq =
      extracted ? *extracted : *a.cache->equivalence;
  for (const xbar::output_equivalence& o : eq.outputs) {
    if (!o.found) {
      diagnostic d;
      d.check_id = "PAR003";
      d.level = severity::error;
      d.message = "spec output '" + o.name +
                  "' has no sensed wordline or constant port on any fragment";
      d.fix = "add an output port named '" + o.name + "' to a fragment";
      d.anchors = {output_entity(o.name)};
      out.add(std::move(d));
      continue;
    }
    if (o.equivalent) continue;
    diagnostic d;
    d.check_id = "PAR003";
    d.level = severity::error;
    d.message = "output '" + o.name +
                "' computes a different function than its specification "
                "across the stitched arrays";
    if (!o.counterexample.empty())
      d.message += "; counterexample: " + witness_text(o.counterexample);
    d.fix = "re-run partitioned synthesis; the stitched design no longer "
            "realizes the spec";
    d.anchors = {output_entity(o.name)};
    out.add(std::move(d));
  }
}

}  // namespace

std::vector<check_descriptor> partition_checks() {
  std::vector<check_descriptor> checks;
  check_descriptor c;

  c.id = "PAR001";
  c.name = "partition-structure";
  c.description =
      "A partitioned design drives exactly one input array and binds every "
      "output on exactly one fragment";
  c.default_severity = severity::error;
  c.needs_partitioned = true;
  c.run = check_partition_structure;
  checks.push_back(c);

  c = {};
  c.id = "PAR002";
  c.name = "bridge-validity";
  c.description =
      "Bridges must join existing wires of distinct fragments, and every "
      "fragment must reach the input array through them";
  c.default_severity = severity::error;
  c.needs_partitioned = true;
  c.run = check_bridges;
  checks.push_back(c);

  c = {};
  c.id = "PAR003";
  c.name = "stitched-equivalence";
  c.description =
      "Each output's stitched sneak-path function must equal its spec BDD";
  c.default_severity = severity::error;
  c.needs_partitioned_spec = true;
  c.run = check_stitched_equivalence;
  checks.push_back(c);

  return checks;
}

}  // namespace compact::verify
