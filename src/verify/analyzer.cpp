#include "verify/analyzer.hpp"

#include <algorithm>
#include <optional>

#include "core/pipeline.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace compact::verify {

int artifacts::resolve_variable_count() const {
  if (variable_count >= 0) return variable_count;
  if (spec != nullptr) return spec->variable_count();
  if (design == nullptr) return -1;
  int inferred = -1;
  for (int r = 0; r < design->rows(); ++r)
    for (int c = 0; c < design->columns(); ++c) {
      const xbar::device& d = design->at(r, c);
      if (d.kind == xbar::literal_kind::positive ||
          d.kind == xbar::literal_kind::negative)
        inferred = std::max(inferred, d.variable + 1);
    }
  return inferred;
}

const std::vector<check_descriptor>& all_checks() {
  static const std::vector<check_descriptor> registry = [] {
    std::vector<check_descriptor> checks;
    for (auto family :
         {labeling_checks, structure_checks, mapping_checks,
          equivalence_checks, partition_checks, electrical_checks,
          fault_checks}) {
      std::vector<check_descriptor> contributed = family();
      for (check_descriptor& c : contributed)
        checks.push_back(std::move(c));
    }
    std::sort(checks.begin(), checks.end(),
              [](const check_descriptor& a, const check_descriptor& b) {
                return a.id < b.id;
              });
    return checks;
  }();
  return registry;
}

const check_descriptor& find_check(const std::string& id) {
  for (const check_descriptor& c : all_checks())
    if (c.id == id) return c;
  throw error("unknown check id '" + id + "'");
}

namespace {

bool applicable(const check_descriptor& c, const artifacts& a) {
  if (c.needs_design && a.design == nullptr) return false;
  if (c.needs_labeling && !a.has_labeling()) return false;
  if (c.needs_mapping && !a.has_mapping()) return false;
  if (c.needs_spec && !a.has_spec()) return false;
  if (c.needs_partitioned && !a.has_partitioned()) return false;
  if (c.needs_partitioned_spec && !a.has_partitioned_spec()) return false;
  if (c.needs_electrical && !a.has_electrical()) return false;
  if (c.needs_criticality && !a.has_criticality()) return false;
  return true;
}

bool is_equivalence(const check_descriptor& c) {
  // PAR003 is the stitched symbolic-equivalence check, and the FLT family
  // re-runs the extraction fixpoint per junction fault: same cost profile
  // as the EQV family, so the same opt-out gates them. (FLT is additionally
  // opt-in through artifacts::criticality.)
  return c.id.rfind("EQV", 0) == 0 || c.id == "PAR003" ||
         c.id.rfind("FLT", 0) == 0;
}

}  // namespace

report analyze(const artifacts& a, const analyzer_options& options) {
  const trace_span span("verify.analyze", "verify");
  report out;
  for (const check_descriptor& c : all_checks()) {
    if (!options.equivalence && is_equivalence(c)) continue;
    if (std::find(options.disabled.begin(), options.disabled.end(), c.id) !=
        options.disabled.end())
      continue;
    if (!applicable(c, a)) continue;
    out.mark_check_run(c.id);
    if (!c.run) continue;  // companion check; its sibling emits the findings
    // The span's name is built only when something records it.
    std::optional<trace_span> check_span;
    if (trace_enabled() || span_stack_tracking())
      check_span.emplace("verify.check." + c.id, "verify");
    c.run(a, out);
    if (metrics_enabled()) {
      static metric_counter& checks_run =
          global_metrics().counter("verify.checks_run");
      checks_run.increment();
    }
  }
  if (metrics_enabled()) {
    static metric_counter& diagnostics =
        global_metrics().counter("verify.diagnostics");
    diagnostics.add(static_cast<std::uint64_t>(out.diagnostics().size()));
  }
  return out;
}

artifacts make_artifacts(const core::synthesis_context& ctx) {
  artifacts a;
  if (ctx.mapped.has_value()) {
    a.design = &ctx.mapped->design;
    a.mapping = &*ctx.mapped;
  }
  a.graph = &ctx.graph;
  a.labels = &ctx.labels;
  a.spec = ctx.manager;
  a.spec_roots = ctx.roots;
  a.spec_names = ctx.names;
  if (ctx.manager != nullptr) a.variable_count = ctx.manager->variable_count();
  return a;
}

std::vector<sarif_rule> registry_rules() {
  std::vector<sarif_rule> rules;
  for (const check_descriptor& c : all_checks())
    rules.push_back({c.id, c.name, c.description, c.default_severity});
  return rules;
}

}  // namespace compact::verify
