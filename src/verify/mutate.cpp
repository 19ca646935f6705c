#include "verify/mutate.hpp"

#include <algorithm>
#include <set>

#include "util/trace.hpp"

namespace compact::verify {

using core::vh_label;
using xbar::literal_kind;

const char* mutation_kind_name(mutation_kind kind) {
  switch (kind) {
    case mutation_kind::label_flip:
      return "label_flip";
    case mutation_kind::bridge_drop:
      return "bridge_drop";
    case mutation_kind::literal_flip:
      return "literal_flip";
    case mutation_kind::literal_retarget:
      return "literal_retarget";
    case mutation_kind::device_drop:
      return "device_drop";
    case mutation_kind::connection_drop:
      return "connection_drop";
    case mutation_kind::ron_degrade:
      return "ron_degrade";
  }
  return "?";
}

std::string mutation::describe() const {
  std::string text = mutation_kind_name(kind);
  if (kind == mutation_kind::label_flip)
    return text + " node " + std::to_string(node);
  if (kind == mutation_kind::connection_drop)
    return text + " bridge " + std::to_string(connection);
  if (kind == mutation_kind::ron_degrade) return text;
  text += " junction (" + std::to_string(row) + ", " +
          std::to_string(column) + ")";
  if (array >= 0) text += " of array " + std::to_string(array);
  return text;
}

namespace {

/// Deterministic stride sample: keep at most `limit` entries spread evenly
/// across the candidate list. No RNG, so self-test runs are reproducible.
void sample_into(std::vector<mutation>& out,
                 const std::vector<mutation>& candidates, std::size_t limit) {
  if (candidates.size() <= limit) {
    out.insert(out.end(), candidates.begin(), candidates.end());
    return;
  }
  for (std::size_t i = 0; i < limit; ++i)
    out.push_back(candidates[i * candidates.size() / limit]);
}

struct device_candidates {
  std::vector<mutation> bridge_drops;
  std::vector<mutation> literal_flips;
  std::vector<mutation> retargets;
  std::vector<mutation> device_drops;
};

void enumerate_devices(const xbar::crossbar& design, int array, int variables,
                       device_candidates& out) {
  for (const xbar::placed_device& p : design.devices()) {
    mutation m;
    m.row = p.row;
    m.column = p.column;
    m.array = array;
    if (p.literal.kind == literal_kind::on) {
      m.kind = mutation_kind::bridge_drop;
      out.bridge_drops.push_back(m);
      continue;
    }
    m.kind = mutation_kind::literal_flip;
    out.literal_flips.push_back(m);
    m.kind = mutation_kind::device_drop;
    out.device_drops.push_back(m);
    if (variables >= 2) {
      m.kind = mutation_kind::literal_retarget;
      out.retargets.push_back(m);
    }
  }
}

/// The crossbar a device mutation targets: a partitioned fragment when
/// `array` names one, else the single-array copy; null when there is none
/// or the mutation's junction lies outside it.
xbar::crossbar* target_design(const mutation& m, mutable_artifacts& out,
                              const artifacts& base) {
  xbar::crossbar* design = nullptr;
  if (m.array >= 0) {
    if (base.partitioned != nullptr && m.array < out.partitioned.array_count())
      design = &out.partitioned.fragment(m.array);
  } else if (base.design != nullptr) {
    design = &out.design;
  }
  if (design == nullptr || m.row < 0 || m.row >= design->rows() ||
      m.column < 0 || m.column >= design->columns())
    return nullptr;
  return design;
}

}  // namespace

std::vector<mutation> enumerate_mutations(const artifacts& a,
                                          std::size_t limit_per_kind) {
  std::vector<mutation> label_flips;
  device_candidates devices;
  std::vector<mutation> connection_drops;
  std::vector<mutation> ron_degrades;

  if (a.labels != nullptr)
    for (std::size_t v = 0; v < a.labels->label_of.size(); ++v) {
      mutation m;
      m.kind = mutation_kind::label_flip;
      m.node = static_cast<int>(v);
      label_flips.push_back(m);
    }

  const int variables = a.resolve_variable_count();
  if (a.design != nullptr) enumerate_devices(*a.design, -1, variables, devices);
  if (a.partitioned != nullptr) {
    for (int f = 0; f < a.partitioned->array_count(); ++f)
      enumerate_devices(a.partitioned->fragment(f), f, variables, devices);
    for (std::size_t b = 0; b < a.partitioned->connections().size(); ++b) {
      mutation m;
      m.kind = mutation_kind::connection_drop;
      m.connection = static_cast<int>(b);
      connection_drops.push_back(m);
    }
  }
  if (a.electrical != nullptr && a.has_conduction_graph()) {
    mutation m;
    m.kind = mutation_kind::ron_degrade;
    ron_degrades.push_back(m);
  }

  std::vector<mutation> out;
  sample_into(out, label_flips, limit_per_kind);
  sample_into(out, devices.bridge_drops, limit_per_kind);
  sample_into(out, devices.literal_flips, limit_per_kind);
  sample_into(out, devices.retargets, limit_per_kind);
  sample_into(out, devices.device_drops, limit_per_kind);
  sample_into(out, connection_drops, limit_per_kind);
  sample_into(out, ron_degrades, limit_per_kind);
  return out;
}

bool apply_mutation(const artifacts& base, const mutation& m,
                    mutable_artifacts& out) {
  switch (m.kind) {
    case mutation_kind::label_flip: {
      if (m.node < 0 ||
          static_cast<std::size_t>(m.node) >= out.labels.label_of.size())
        return false;
      vh_label& l = out.labels.label_of[static_cast<std::size_t>(m.node)];
      // Deterministic cycle V -> H -> VH -> V: every flip changes the
      // node's nanowire demands, so a consistent mapping cannot survive.
      switch (l) {
        case vh_label::v:
          l = vh_label::h;
          break;
        case vh_label::h:
          l = vh_label::vh;
          break;
        case vh_label::vh:
          l = vh_label::v;
          break;
      }
      return true;
    }
    case mutation_kind::bridge_drop: {
      xbar::crossbar* design = target_design(m, out, base);
      if (design == nullptr) return false;
      if (design->at(m.row, m.column).kind != literal_kind::on) return false;
      design->set(m.row, m.column, {literal_kind::off, -1});
      return true;
    }
    case mutation_kind::literal_flip: {
      xbar::crossbar* design = target_design(m, out, base);
      if (design == nullptr) return false;
      const xbar::device d = design->at(m.row, m.column);
      if (d.kind == literal_kind::positive)
        design->set(m.row, m.column, {literal_kind::negative, d.variable});
      else if (d.kind == literal_kind::negative)
        design->set(m.row, m.column, {literal_kind::positive, d.variable});
      else
        return false;
      return true;
    }
    case mutation_kind::literal_retarget: {
      xbar::crossbar* design = target_design(m, out, base);
      if (design == nullptr) return false;
      const xbar::device d = design->at(m.row, m.column);
      if (!d.reads_variable()) return false;
      const int variables = base.resolve_variable_count();
      if (variables < 2) return false;
      design->set(m.row, m.column, {d.kind, (d.variable + 1) % variables});
      return true;
    }
    case mutation_kind::device_drop: {
      xbar::crossbar* design = target_design(m, out, base);
      if (design == nullptr) return false;
      const xbar::device d = design->at(m.row, m.column);
      if (!d.reads_variable()) return false;
      design->set(m.row, m.column, {literal_kind::off, -1});
      return true;
    }
    case mutation_kind::connection_drop: {
      if (base.partitioned == nullptr || m.connection < 0 ||
          static_cast<std::size_t>(m.connection) >=
              out.partitioned.connections().size())
        return false;
      // partitioned_design only grows; rebuild it without the severed
      // bridge.
      xbar::partitioned_design cut;
      for (const xbar::crossbar& fragment : out.partitioned.fragments())
        cut.add_fragment(fragment);
      for (std::size_t b = 0; b < out.partitioned.connections().size(); ++b) {
        if (b == static_cast<std::size_t>(m.connection)) continue;
        const xbar::bridge& bridge = out.partitioned.connections()[b];
        cut.add_connection(bridge.a, bridge.b);
      }
      out.partitioned = std::move(cut);
      return true;
    }
    case mutation_kind::ron_degrade: {
      if (base.electrical == nullptr) return false;
      // Collapse the device corner: R_on rises to R_off, so no ON path can
      // outconduct the leakage bound and ELC001 must escalate to an error.
      out.electrical.model.r_on = out.electrical.model.r_off;
      return true;
    }
  }
  return false;
}

self_test_result run_self_test(const artifacts& a,
                               const analyzer_options& options,
                               std::size_t limit_per_kind) {
  const trace_span span("verify.self_test", "verify");
  self_test_result result;

  // Errors the pristine design already triggers don't count as kills.
  std::set<std::string> baseline_errors;
  {
    const report baseline = analyze(a, options);
    for (const diagnostic& d : baseline.diagnostics())
      if (d.level == severity::error) baseline_errors.insert(d.check_id);
  }

  for (const mutation& m : enumerate_mutations(a, limit_per_kind)) {
    mutable_artifacts mutated_state;
    if (a.design != nullptr) mutated_state.design = *a.design;
    if (a.labels != nullptr) mutated_state.labels = *a.labels;
    if (a.partitioned != nullptr) mutated_state.partitioned = *a.partitioned;
    if (a.electrical != nullptr) mutated_state.electrical = *a.electrical;
    if (!apply_mutation(a, m, mutated_state)) continue;

    artifacts mutated = a;
    mutated.cache = nullptr;  // engine results of the pristine run stay put
    if (a.design != nullptr) mutated.design = &mutated_state.design;
    if (a.labels != nullptr) mutated.labels = &mutated_state.labels;
    if (a.partitioned != nullptr)
      mutated.partitioned = &mutated_state.partitioned;
    if (a.electrical != nullptr)
      mutated.electrical = &mutated_state.electrical;

    self_test_outcome outcome;
    outcome.m = m;
    const report mutated_report = analyze(mutated, options);
    std::set<std::string> fired;
    for (const diagnostic& d : mutated_report.diagnostics())
      if (d.level == severity::error &&
          baseline_errors.count(d.check_id) == 0)
        fired.insert(d.check_id);
    outcome.killed = !fired.empty();
    outcome.triggered_checks.assign(fired.begin(), fired.end());

    ++result.total;
    if (outcome.killed) ++result.killed;
    result.outcomes.push_back(std::move(outcome));
  }
  return result;
}

}  // namespace compact::verify
