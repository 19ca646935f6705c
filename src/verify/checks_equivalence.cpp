// Symbolic-equivalence checks (EQVxxx): extract the crossbar's sneak-path
// function back into a BDD manager and compare canonical ROBDD roots
// against the specification — the same checker behind xbar::validate, exact
// at any variable count.
#include <optional>
#include <string>
#include <unordered_set>

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

// EQV001/EQV002 — every spec output must be realized by the crossbar and
// compute exactly the spec function. Mismatches come with a satisfying
// counterexample of the XOR of the two functions.
void check_output_functions(const artifacts& a, report& out) {
  std::optional<xbar::equivalence_report> extracted;
  if (a.cache == nullptr || !a.cache->equivalence)
    extracted = xbar::check_symbolic_equivalence(*a.design, *a.spec,
                                                 *a.spec_roots, *a.spec_names);
  const xbar::equivalence_report& eq =
      extracted ? *extracted : *a.cache->equivalence;
  for (const xbar::output_equivalence& o : eq.outputs) {
    if (!o.found) {
      diagnostic d;
      d.check_id = "EQV002";
      d.level = severity::error;
      d.message = "spec output '" + o.name +
                  "' has no sensed wordline or constant port on the crossbar";
      d.fix = "add an output port named '" + o.name + "'";
      d.anchors = {output_entity(o.name)};
      out.add(std::move(d));
      continue;
    }
    if (o.equivalent) continue;
    diagnostic d;
    d.check_id = "EQV001";
    d.level = severity::error;
    d.message = "output '" + o.name +
                "' computes a different function than its specification";
    if (!o.counterexample.empty())
      d.message +=
          "; counterexample: " + witness_text(o.counterexample) +
          " (the sneak-path evaluation and the spec BDD disagree here)";
    d.fix = "re-run synthesis for this design; the mapped crossbar no "
            "longer realizes the spec";
    d.anchors = {output_entity(o.name)};
    out.add(std::move(d));
  }
}

// EQV003 — outputs the crossbar exposes that the spec never asked for.
// Advisory: extra ports don't break the computed functions, but they
// usually indicate a stale port table.
void check_extra_outputs(const artifacts& a, report& out) {
  std::unordered_set<std::string> wanted(a.spec_names->begin(),
                                         a.spec_names->end());
  auto flag = [&](const std::string& name) {
    if (wanted.count(name) != 0) return;
    diagnostic d;
    d.check_id = "EQV003";
    d.level = severity::note;
    d.message = "crossbar exposes output '" + name +
                "' that the specification does not define";
    d.anchors = {output_entity(name)};
    out.add(std::move(d));
  };
  for (const xbar::output_port& port : a.design->outputs()) flag(port.name);
  for (const auto& [name, value] : a.design->constant_outputs()) {
    (void)value;
    flag(name);
  }
}

}  // namespace

std::vector<check_descriptor> equivalence_checks() {
  std::vector<check_descriptor> checks;
  check_descriptor c;

  c.id = "EQV001";
  c.name = "output-function-mismatch";
  c.description =
      "Each output's extracted sneak-path function must equal its spec BDD";
  c.default_severity = severity::error;
  c.needs_spec = true;
  c.run = check_output_functions;
  checks.push_back(c);

  c = {};
  c.id = "EQV002";
  c.name = "missing-output";
  c.description = "Every specification output must exist on the crossbar";
  c.default_severity = severity::error;
  c.needs_spec = true;
  c.run = nullptr;  // companion: EQV001's pass reports EQV002 findings
  checks.push_back(c);

  c = {};
  c.id = "EQV003";
  c.name = "extra-output";
  c.description =
      "Crossbar outputs absent from the specification are flagged";
  c.default_severity = severity::note;
  c.needs_spec = true;
  c.run = check_extra_outputs;
  checks.push_back(c);

  return checks;
}

}  // namespace compact::verify
