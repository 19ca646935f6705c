#include "bdd/dot.hpp"

#include "bdd/stats.hpp"
#include "util/error.hpp"

namespace compact::bdd {

void write_dot(const manager& m, const std::vector<node_handle>& roots,
               const std::vector<std::string>& root_names, std::ostream& os) {
  check(root_names.empty() || root_names.size() == roots.size(),
        "write_dot: root_names must parallel roots");
  const reachable_set reachable = collect_reachable(m, roots);

  os << "digraph bdd {\n";
  os << "  rankdir=TB;\n";
  for (std::size_t i = 0; i < roots.size(); ++i) {
    const std::string name =
        root_names.empty() ? std::string("f").append(std::to_string(i))
                           : root_names[i];
    os << "  \"" << name << "\" [shape=plaintext];\n";
    os << "  \"" << name << "\" -> n" << roots[i] << ";\n";
  }
  for (node_handle u : reachable.nodes) {
    if (m.is_terminal(u)) {
      os << "  n" << u << " [shape=box,label=\""
         << (u == true_handle ? 1 : 0) << "\"];\n";
      continue;
    }
    const node& n = m.at(u);
    os << "  n" << u << " [shape=circle,label=\"x" << n.var << "\"];\n";
    os << "  n" << u << " -> n" << n.high << " [style=solid];\n";
    os << "  n" << u << " -> n" << n.low << " [style=dashed];\n";
  }
  os << "}\n";
}

}  // namespace compact::bdd
