// Exhaustive enumeration as a test oracle for validity.
//
// The library decides validity symbolically (xbar::validate). The agreement
// tests pin that checker against the definition itself: evaluate the design
// under every assignment and compare every port and constant bound to a spec
// name with the spec BDD. Serial, and limited to 16 inputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bdd/manager.hpp"
#include "util/error.hpp"
#include "xbar/crossbar.hpp"
#include "xbar/evaluate.hpp"

namespace compact::oracle {

struct exhaustive_verdict {
  bool valid = true;
  std::string first_failure;  // empty when valid
};

inline exhaustive_verdict exhaustive_validation(
    const xbar::crossbar& design, const bdd::manager& m,
    const std::vector<bdd::node_handle>& roots,
    const std::vector<std::string>& names, int variable_count) {
  check(variable_count >= 0 && variable_count <= 16,
        "exhaustive_validation: at most 16 inputs");
  std::vector<bool> assignment(static_cast<std::size_t>(variable_count));
  for (std::uint32_t index = 0; index < (1u << variable_count); ++index) {
    for (int v = 0; v < variable_count; ++v)
      assignment[static_cast<std::size_t>(v)] = (index >> v) & 1;
    const std::vector<bool> reach = xbar::reachable_rows(design, assignment);
    for (std::size_t i = 0; i < roots.size(); ++i) {
      const bool expected = m.evaluate(roots[i], assignment);
      std::vector<bool> bound;
      for (const xbar::output_port& port : design.outputs())
        if (port.name == names[i])
          bound.push_back(reach[static_cast<std::size_t>(port.row)]);
      for (const auto& [name, value] : design.constant_outputs())
        if (name == names[i]) bound.push_back(value);
      if (bound.empty())
        return {false, "design has no output named " + names[i]};
      for (const bool got : bound) {
        if (got == expected) continue;
        std::string bits;
        for (const bool b : assignment) bits += b ? '1' : '0';
        return {false, "output '" + names[i] + "' expected " +
                           (expected ? "1" : "0") + " under assignment " +
                           bits};
      }
    }
  }
  return {};
}

}  // namespace compact::oracle
