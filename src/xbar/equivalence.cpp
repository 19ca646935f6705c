#include "xbar/equivalence.hpp"

#include <algorithm>

#include "bdd/transfer.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace compact::xbar {
namespace {

/// Count one extraction and its fixpoint sweeps (verify.extractions,
/// verify.fixpoint_iterations).
void note_extraction(int fixpoint_iterations) {
  if (!metrics_enabled()) return;
  static metric_counter& extractions =
      global_metrics().counter("verify.extractions");
  static metric_histogram& iterations = global_metrics().histogram(
      "verify.fixpoint_iterations",
      {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0});
  extractions.increment();
  iterations.observe(static_cast<double>(fixpoint_iterations));
}

/// Each device's function, in the device list's (row, column) order.
std::vector<bdd::node_handle> functions_of(const crossbar& design,
                                           bdd::manager& m) {
  std::vector<bdd::node_handle> fns;
  fns.reserve(design.devices().size());
  for (const placed_device& p : design.devices())
    fns.push_back(device_function(p.literal, m));
  return fns;
}

}  // namespace

bdd::node_handle device_function(const device& d, bdd::manager& m) {
  switch (d.kind) {
    case literal_kind::off:
      return m.constant(false);
    case literal_kind::on:
      return m.constant(true);
    case literal_kind::positive:
    case literal_kind::negative:
      check(d.variable >= 0 && d.variable < m.variable_count(),
            "device_function: variable x" + std::to_string(d.variable) +
                " out of range [0, " + std::to_string(m.variable_count()) +
                ")");
      return d.kind == literal_kind::positive ? m.var(d.variable)
                                                    : m.nvar(d.variable);
  }
  return m.constant(false);
}

extraction_result extract_sneak_functions(const crossbar& design,
                                          bdd::manager& m) {
  const trace_span span("extract_sneak_functions", "verify");
  check(design.input_row() >= 0 && design.input_row() < design.rows(),
        "extract_sneak_functions: design has no input row");
  const std::vector<placed_device>& devices = design.devices();
  const std::vector<bdd::node_handle> fns = functions_of(design, m);

  extraction_result result;
  result.row_function.assign(static_cast<std::size_t>(design.rows()),
                             m.constant(false));
  result.column_function.assign(static_cast<std::size_t>(design.columns()),
                                m.constant(false));
  result.row_function[static_cast<std::size_t>(design.input_row())] =
      m.constant(true);

  // Least-fixpoint iteration. The reachability functions only ever grow
  // (every update ORs new terms in), so termination is guaranteed; the
  // number of sweeps is bounded by the crossbar's conduction diameter
  // (alternating row/column hops), typically far below rows + columns.
  // Each sweep updates every column from the rows, then every row from the
  // columns. A half-sweep reads only the other half, so one pass over the
  // device list ORs in each wire's terms in order: a column's by row, a
  // row's by column.
  const auto add = [&](bdd::node_handle& value, bdd::node_handle from,
                       std::size_t device) {
    value = m.apply_or(value, m.apply_and(from, fns[device]));
  };
  bool changed = true;
  while (changed) {
    ++result.fixpoint_iterations;
    std::vector<bdd::node_handle> columns = result.column_function;
    for (std::size_t i = 0; i < devices.size(); ++i)
      add(columns[static_cast<std::size_t>(devices[i].column)],
          result.row_function[static_cast<std::size_t>(devices[i].row)], i);
    std::vector<bdd::node_handle> rows = result.row_function;
    for (std::size_t i = 0; i < devices.size(); ++i)
      if (devices[i].row != design.input_row())
        add(rows[static_cast<std::size_t>(devices[i].row)],
            columns[static_cast<std::size_t>(devices[i].column)], i);
    changed = columns != result.column_function || rows != result.row_function;
    result.column_function = std::move(columns);
    result.row_function = std::move(rows);
  }

  // The fixpoint leaves every superseded iterate (and the per-device
  // literal nodes) in the manager; sweep them so only the converged
  // reachability functions remain. The caller's follow-up work (spec
  // transfer, XOR witnesses) then runs against a compact table, and
  // node_table_size() reports the extraction's true footprint.
  {
    std::vector<bdd::node_handle> live;
    live.reserve(result.row_function.size() + result.column_function.size());
    live.insert(live.end(), result.row_function.begin(),
                result.row_function.end());
    live.insert(live.end(), result.column_function.begin(),
                result.column_function.end());
    m.collect_garbage(live);
  }

  note_extraction(result.fixpoint_iterations);
  return result;
}

stitched_extraction_result extract_stitched_functions(
    const partitioned_design& design, bdd::manager& m) {
  const trace_span span("extract_stitched_functions", "verify");
  const int input_fragment = design.input_array();
  check(input_fragment >= 0,
        "extract_stitched_functions: no fragment declares an input row");

  // One index space over every nanowire of every fragment, as in the
  // stitched BFS (xbar/partitioned).
  const int fragment_count = design.array_count();
  const wire_numbering wires(design.fragments());
  const std::vector<std::pair<int, wire_ref>> links =
      bridge_links(design.connections(), wires);
  std::vector<std::vector<bdd::node_handle>> fns;
  fns.reserve(static_cast<std::size_t>(fragment_count));
  for (const crossbar& fragment : design.fragments())
    fns.push_back(functions_of(fragment, m));

  const int input_wire =
      wires.row(input_fragment, design.fragment(input_fragment).input_row());
  std::vector<bdd::node_handle> fn(static_cast<std::size_t>(wires.total()),
                                   m.constant(false));
  fn[static_cast<std::size_t>(input_wire)] = m.constant(true);

  stitched_extraction_result result;
  bool changed = true;
  // Fold the wires bridged to `wire` into its new `value` and store it. A
  // bridge welds its two wires into one net: an always-true link.
  const auto settle = [&](int wire, bdd::node_handle value) {
    for (const auto& link : std::ranges::equal_range(
             links, wire, {}, &std::pair<int, wire_ref>::first))
      value = m.apply_or(value, fn[static_cast<std::size_t>(
                                    wires.of(link.second))]);
    if (value == fn[static_cast<std::size_t>(wire)]) return;
    fn[static_cast<std::size_t>(wire)] = value;
    changed = true;
  };
  // Sweep the wires in number order: each fragment's rows, then its
  // columns. A half of a fragment reads only its other half and the other
  // fragments, so one pass over its device list ORs in each wire's device
  // terms in order before the bridges; the input wire stays pinned.
  std::vector<bdd::node_handle> next;
  const auto add = [&](int to, int from, bdd::node_handle device) {
    bdd::node_handle& value = next[static_cast<std::size_t>(to)];
    value = m.apply_or(
        value, m.apply_and(fn[static_cast<std::size_t>(from)], device));
  };
  while (changed) {
    changed = false;
    ++result.fixpoint_iterations;
    for (int f = 0; f < fragment_count; ++f) {
      const crossbar& fragment = design.fragment(f);
      const std::vector<placed_device>& devices = fragment.devices();
      const std::vector<bdd::node_handle>& device_fn =
          fns[static_cast<std::size_t>(f)];
      const int rows = wires.row(f, 0);
      const int columns = wires.column(f, 0);
      next.assign(fn.begin() + rows, fn.begin() + columns);
      for (std::size_t i = 0; i < devices.size(); ++i)
        if (rows + devices[i].row != input_wire)
          add(devices[i].row, columns + devices[i].column, device_fn[i]);
      for (int r = 0; r < fragment.rows(); ++r)
        if (rows + r != input_wire)
          settle(rows + r, next[static_cast<std::size_t>(r)]);
      next.assign(fn.begin() + columns,
                  fn.begin() + columns + fragment.columns());
      for (std::size_t i = 0; i < devices.size(); ++i)
        add(devices[i].column, rows + devices[i].row, device_fn[i]);
      for (int c = 0; c < fragment.columns(); ++c)
        settle(columns + c, next[static_cast<std::size_t>(c)]);
    }
  }

  m.collect_garbage(fn);

  for (int f = 0; f < fragment_count; ++f) {
    const auto rows = fn.begin() + wires.row(f, 0);
    const auto columns = fn.begin() + wires.column(f, 0);
    result.row_function.emplace_back(rows, columns);
    result.column_function.emplace_back(
        columns, columns + design.fragment(f).columns());
  }

  note_extraction(result.fixpoint_iterations);
  return result;
}

namespace {

/// Compare each spec output with every function bound to its name
/// (`bound[i]`, parallel to the roots): the design is valid only when every
/// sensed port and every constant of that name computes the spec function.
/// An output with no binding is missing.
equivalence_report compare_outputs(
    const bdd::manager& spec, const std::vector<bdd::node_handle>& roots,
    const std::vector<std::string>& names,
    const std::vector<std::vector<bdd::node_handle>>& bound,
    bdd::manager& scratch) {
  equivalence_report report;
  for (std::size_t i = 0; i < roots.size(); ++i) {
    output_equivalence out;
    out.name = names[i];
    out.found = !bound[i].empty();
    out.equivalent = out.found;
    const bdd::node_handle want =
        out.found ? bdd::transfer(spec, roots[i], scratch) : bdd::false_handle;
    for (const bdd::node_handle got : bound[i]) {
      if (scratch.same_function(got, want)) continue;
      out.equivalent = false;
      const bdd::node_handle diff = scratch.apply_xor(got, want);
      if (const auto witness = bdd::find_satisfying(scratch, diff)) {
        // Report only the spec's variables; scratch-only extras are
        // design corruption flagged separately.
        out.counterexample.assign(witness->begin(),
                                  witness->begin() + spec.variable_count());
      }
      break;
    }
    report.equivalent = report.equivalent && out.equivalent;
    report.outputs.push_back(std::move(out));
  }
  return report;
}

/// Every port and constant of `design` named `name`, as functions in
/// `scratch`; `rows` holds the extracted wordline functions (empty when the
/// design has no input row, so its ports sense nothing).
void bind_outputs(const crossbar& design, const std::string& name,
                  const std::vector<bdd::node_handle>& rows,
                  bdd::manager& scratch, std::vector<bdd::node_handle>& out) {
  for (const output_port& port : design.outputs())
    if (port.name == name && port.row >= 0 &&
        static_cast<std::size_t>(port.row) < rows.size())
      out.push_back(rows[static_cast<std::size_t>(port.row)]);
  for (const auto& [constant, value] : design.constant_outputs())
    if (constant == name) out.push_back(scratch.constant(value));
}

}  // namespace

equivalence_report check_symbolic_equivalence(
    const crossbar& design, const bdd::manager& spec,
    const std::vector<bdd::node_handle>& roots,
    const std::vector<std::string>& names) {
  const trace_span span("check_symbolic_equivalence", "verify");
  check(roots.size() == names.size(),
        "check_symbolic_equivalence: roots/names size mismatch");

  // The scratch manager must cover both the spec's support and whatever the
  // devices are programmed with (a corrupted design may reference extra
  // variables; those must extract, not crash, so the checker can flag them).
  bdd::manager scratch(
      std::max(spec.variable_count(), design.max_variable() + 1));
  extraction_result extracted;
  if (design.input_row() >= 0 && design.input_row() < design.rows())
    extracted = extract_sneak_functions(design, scratch);
  const std::size_t extraction_nodes = scratch.node_table_size();

  std::vector<std::vector<bdd::node_handle>> bound(roots.size());
  for (std::size_t i = 0; i < roots.size(); ++i)
    bind_outputs(design, names[i], extracted.row_function, scratch, bound[i]);
  equivalence_report report =
      compare_outputs(spec, roots, names, bound, scratch);
  report.fixpoint_iterations = extracted.fixpoint_iterations;
  report.extraction_nodes = extraction_nodes;
  return report;
}

equivalence_report check_partitioned_equivalence(
    const partitioned_design& design, const bdd::manager& spec,
    const std::vector<bdd::node_handle>& roots,
    const std::vector<std::string>& names) {
  const trace_span span("check_partitioned_equivalence", "verify");
  check(roots.size() == names.size(),
        "check_partitioned_equivalence: roots/names size mismatch");

  int variables = spec.variable_count();
  for (const crossbar& fragment : design.fragments())
    variables = std::max(variables, fragment.max_variable() + 1);
  bdd::manager scratch(variables);
  stitched_extraction_result extracted;
  if (design.input_array() >= 0)
    extracted = extract_stitched_functions(design, scratch);
  else
    extracted.row_function.resize(
        static_cast<std::size_t>(design.array_count()));
  const std::size_t extraction_nodes = scratch.node_table_size();

  std::vector<std::vector<bdd::node_handle>> bound(roots.size());
  for (std::size_t i = 0; i < roots.size(); ++i)
    for (int f = 0; f < design.array_count(); ++f)
      bind_outputs(design.fragment(f), names[i],
                   extracted.row_function[static_cast<std::size_t>(f)],
                   scratch, bound[i]);
  equivalence_report report =
      compare_outputs(spec, roots, names, bound, scratch);
  report.fixpoint_iterations = extracted.fixpoint_iterations;
  report.extraction_nodes = extraction_nodes;
  return report;
}

equivalence_report validate(const crossbar& design, const bdd::manager& spec,
                            const std::vector<bdd::node_handle>& roots,
                            const std::vector<std::string>& names,
                            int input_count) {
  check_assignment(design, static_cast<std::size_t>(input_count));
  return check_symbolic_equivalence(design, spec, roots, names);
}

equivalence_report validate(const partitioned_design& design,
                            const bdd::manager& spec,
                            const std::vector<bdd::node_handle>& roots,
                            const std::vector<std::string>& names,
                            int input_count) {
  for (const crossbar& fragment : design.fragments())
    check_assignment(fragment, static_cast<std::size_t>(input_count));
  if (design.array_count() > 1 || !design.connections().empty())
    return check_partitioned_equivalence(design, spec, roots, names);
  return check_symbolic_equivalence(design.fragment(0), spec, roots, names);
}

std::string verdict_text(const equivalence_report& report) {
  std::string text = report.equivalent ? "PASS" : "FAIL";
  text += " (symbolic, " + std::to_string(report.fixpoint_iterations) +
          " fixpoint iterations)";
  for (const output_equivalence& o : report.outputs) {
    if (o.equivalent) continue;
    text += "\noutput '" + o.name + "' " +
            (o.found ? "differs from its specification" : "is missing");
    if (!o.counterexample.empty()) {
      text += " under assignment ";
      for (const bool b : o.counterexample) text += b ? '1' : '0';
    }
  }
  return text;
}

}  // namespace compact::xbar
