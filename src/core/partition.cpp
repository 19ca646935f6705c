#include "core/partition.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"
#include "util/hash.hpp"

namespace compact::core {
namespace {

/// Bump when the planning algorithm changes which plan it produces for an
/// unchanged input: stored plans must never be served across algorithm
/// revisions (the cache key includes this).
constexpr int partition_algorithm_version = 1;

/// Refinement is a local search; a small fixed sweep bound keeps planning
/// linear-ish while catching the boundary-misplacement the greedy pass
/// leaves behind.
constexpr int max_refine_sweeps = 8;

/// min over the set budgets; 0 = unbounded (no partitioning possible).
int capacity_of(const partition_options& options) {
  int capacity = 0;
  if (options.max_rows) capacity = *options.max_rows;
  if (options.max_columns)
    capacity = capacity == 0 ? *options.max_columns
                             : std::min(capacity, *options.max_columns);
  return capacity;
}

/// Footprint feasibility + cut size of an interval assignment. A fragment
/// holding m member vertices and p ports (distinct earlier-fragment
/// endpoints of its incoming cut edges) occupies at most m + p nanowires in
/// either dimension under any feasible VH-labeling.
struct assessment {
  bool feasible = false;
  int cut = 0;
};

assessment assess(const bdd_graph& graph, const std::vector<int>& fragment_of,
                  int fragment_count, int capacity) {
  std::vector<int> members(static_cast<std::size_t>(fragment_count), 0);
  for (const int f : fragment_of) ++members[static_cast<std::size_t>(f)];

  // One port per distinct (earlier endpoint, later fragment) pair.
  std::vector<std::pair<graph::node_id, int>> port_pairs;
  assessment result;
  for (const graph::edge& e : graph.g.edges()) {
    const int fu = fragment_of[static_cast<std::size_t>(e.u)];
    const int fv = fragment_of[static_cast<std::size_t>(e.v)];
    if (fu == fv) continue;
    ++result.cut;
    port_pairs.emplace_back(fu < fv ? e.u : e.v, std::max(fu, fv));
  }
  std::sort(port_pairs.begin(), port_pairs.end());
  port_pairs.erase(std::unique(port_pairs.begin(), port_pairs.end()),
                   port_pairs.end());
  std::vector<int> ports(static_cast<std::size_t>(fragment_count), 0);
  for (const auto& [vertex, fragment] : port_pairs)
    ++ports[static_cast<std::size_t>(fragment)];

  result.feasible = true;
  for (int f = 0; f < fragment_count; ++f) {
    const auto i = static_cast<std::size_t>(f);
    if (members[i] == 0 || members[i] + ports[i] > capacity) {
      result.feasible = false;
      break;
    }
  }
  return result;
}

/// Greedy interval packing over the SBDD vertex order: open a fragment,
/// admit vertices while members + ports stay within capacity, close and
/// reopen otherwise. Throws when a single vertex plus its mandatory ports
/// overflows the capacity.
std::vector<int> greedy_pack(const bdd_graph& graph, int capacity) {
  const auto n = static_cast<graph::node_id>(graph.g.node_count());
  std::vector<int> fragment_of(static_cast<std::size_t>(n), 0);
  std::vector<char> is_port(static_cast<std::size_t>(n), 0);
  std::vector<graph::node_id> port_list;  // open fragment's ports, for reset
  int current = 0;
  int members = 0;

  // Distinct earlier-fragment neighbors of v not yet ports of the open
  // fragment. Only u < v are assigned, so the scan is well-defined.
  const auto fresh_ports = [&](graph::node_id v) {
    int fresh = 0;
    for (const graph::node_id u : graph.g.neighbors(v))
      if (u < v && fragment_of[static_cast<std::size_t>(u)] < current &&
          is_port[static_cast<std::size_t>(u)] == 0)
        ++fresh;
    return fresh;
  };

  for (graph::node_id v = 0; v < n; ++v) {
    int fresh = fresh_ports(v);
    if (members > 0 &&
        members + static_cast<int>(port_list.size()) + fresh + 1 > capacity) {
      ++current;
      members = 0;
      for (const graph::node_id u : port_list)
        is_port[static_cast<std::size_t>(u)] = 0;
      port_list.clear();
      fresh = fresh_ports(v);
    }
    if (members == 0 && fresh + 1 > capacity)
      throw infeasible_error(
          "infeasible: SBDD vertex " + std::to_string(v) + " needs " +
          std::to_string(fresh + 1) + " nanowires (itself plus " +
          std::to_string(fresh) +
          " bridge ports) but the per-array capacity min(--max-rows, "
          "--max-cols) is " +
          std::to_string(capacity) + "; raise the budgets");
    fragment_of[static_cast<std::size_t>(v)] = current;
    ++members;
    for (const graph::node_id u : graph.g.neighbors(v))
      if (u < v && fragment_of[static_cast<std::size_t>(u)] < current &&
          is_port[static_cast<std::size_t>(u)] == 0) {
        is_port[static_cast<std::size_t>(u)] = 1;
        port_list.push_back(u);
      }
  }
  return fragment_of;
}

/// Bounded local search over fragment boundaries: try shifting each boundary
/// one vertex left or right, keep strict cut reductions that stay feasible.
/// Deterministic (fixed boundary order, fixed move order, strict decrease).
void refine_boundaries(const bdd_graph& graph, std::vector<int>& fragment_of,
                       int fragment_count, int capacity) {
  assessment best = assess(graph, fragment_of, fragment_count, capacity);
  const auto n = fragment_of.size();
  for (int sweep = 0; sweep < max_refine_sweeps; ++sweep) {
    bool improved = false;
    for (int f = 1; f < fragment_count; ++f) {
      // First vertex of fragment f (fragments are non-empty intervals).
      std::size_t boundary = 0;
      while (boundary < n && fragment_of[boundary] != f) ++boundary;
      for (const bool pull_left : {true, false}) {
        std::vector<int> candidate = fragment_of;
        if (pull_left) {
          if (boundary == 0 || candidate[boundary - 1] != f - 1) continue;
          candidate[boundary - 1] = f;  // last of f-1 joins f
        } else {
          candidate[boundary] = f - 1;  // first of f joins f-1
        }
        const assessment a =
            assess(graph, candidate, fragment_count, capacity);
        if (a.feasible && a.cut < best.cut) {
          fragment_of = std::move(candidate);
          best = a;
          improved = true;
          break;  // boundary moved; recompute it before trying again
        }
      }
    }
    if (!improved) break;
  }
}

}  // namespace

label_cache_key make_partition_cache_key(const bdd_graph& graph,
                                         const partition_options& options) {
  // Same canonical-string scheme as make_label_cache_key. Budgets enter
  // only through the capacity: (64, 128) and (64, nullopt) plan
  // identically, so they share an entry.
  std::string canonical;
  canonical.reserve(16 * graph.g.edge_count() + 96);
  canonical += "partition;v=" + std::to_string(partition_algorithm_version);
  canonical += ";cap=" + std::to_string(capacity_of(options));
  canonical += std::string(";refine=") + (options.refine ? "1" : "0");
  canonical += ";n=" + std::to_string(graph.g.node_count());
  canonical += ";e=";
  for (const graph::edge& e : graph.g.edges()) {
    canonical += std::to_string(e.u);
    canonical += '-';
    canonical += std::to_string(e.v);
    canonical += ',';
  }

  fnv1a_hasher hasher;
  hasher.add_string(canonical);
  return {hasher.digest(), std::move(canonical)};
}

partition_cache::partition_cache()
    : memo_("partition_cache", "cache.partition") {}

std::optional<partition_plan> partition_cache::find(
    const label_cache_key& key) const {
  return memo_.find(key.digest, key.canonical);
}

void partition_cache::store(const label_cache_key& key, partition_plan plan) {
  const std::uint64_t bytes = plan.fragment_of.size() * sizeof(int) +
                              plan.cut_edges.size() * sizeof(std::size_t) +
                              sizeof(partition_plan);
  memo_.store(key.digest, key.canonical, std::move(plan), bytes);
}

partition_cache::counters partition_cache::stats() const {
  return memo_.stats();
}

void partition_cache::set_capacity_bytes(std::uint64_t capacity) {
  memo_.set_capacity_bytes(capacity);
}

std::uint64_t partition_cache::capacity_bytes() const {
  return memo_.capacity_bytes();
}

void partition_cache::clear() { memo_.clear(); }

partition_plan plan_partition(const bdd_graph& graph,
                              const partition_options& options,
                              partition_cache* cache) {
  if (options.max_rows && *options.max_rows < 1)
    throw infeasible_error("infeasible: --max-rows must be at least 1");
  if (options.max_columns && *options.max_columns < 1)
    throw infeasible_error("infeasible: --max-cols must be at least 1");

  partition_plan plan;
  plan.capacity = capacity_of(options);
  const std::size_t n = graph.g.node_count();
  plan.fragment_of.assign(n, 0);
  // Unbounded, or the whole graph fits one array under any labeling: the
  // trivial plan, never worth caching.
  if (plan.capacity == 0 || n <= static_cast<std::size_t>(plan.capacity))
    return plan;

  std::optional<label_cache_key> key;
  if (cache != nullptr) {
    key = make_partition_cache_key(graph, options);
    if (std::optional<partition_plan> hit = cache->find(*key)) return *hit;
  }

  plan.fragment_of = greedy_pack(graph, plan.capacity);
  plan.fragment_count = plan.fragment_of.empty()
                            ? 1
                            : plan.fragment_of.back() + 1;
  if (options.refine && plan.fragment_count > 1)
    refine_boundaries(graph, plan.fragment_of, plan.fragment_count,
                      plan.capacity);

  const std::vector<graph::edge>& edges = graph.g.edges();
  for (std::size_t i = 0; i < edges.size(); ++i)
    if (plan.fragment_of[static_cast<std::size_t>(edges[i].u)] !=
        plan.fragment_of[static_cast<std::size_t>(edges[i].v)])
      plan.cut_edges.push_back(i);

  if (key) cache->store(*key, plan);
  return plan;
}

std::vector<fragment_graph> build_fragment_graphs(const bdd_graph& graph,
                                                  const partition_plan& plan) {
  const std::size_t n = graph.g.node_count();
  check(plan.fragment_of.size() == n,
        "partition: plan does not match the graph");
  const int k = plan.fragment_count;
  std::vector<fragment_graph> fragments(static_cast<std::size_t>(k));
  std::vector<graph::node_id> local_of(n, -1);
  const bool have_handles = graph.handle_of.size() == n;

  // Members first, in global vertex order, so fragment construction (and
  // therefore labeling cache keys) is deterministic.
  for (std::size_t v = 0; v < n; ++v) {
    fragment_graph& f = fragments[static_cast<std::size_t>(plan.fragment_of[v])];
    local_of[v] = f.graph.g.add_node();
    f.global_of.push_back(static_cast<graph::node_id>(v));
    if (have_handles) f.graph.handle_of.push_back(graph.handle_of[v]);
  }
  for (fragment_graph& f : fragments) f.member_count = f.graph.g.node_count();

  // Edges in global order. A cut edge's device lives in the later fragment,
  // attached to a port vertex mirroring the earlier endpoint (one port per
  // distinct earlier endpoint per fragment).
  std::vector<std::unordered_map<graph::node_id, graph::node_id>> port_of(
      static_cast<std::size_t>(k));
  const std::vector<graph::edge>& edges = graph.g.edges();
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const graph::edge& e = edges[i];
    const int fu = plan.fragment_of[static_cast<std::size_t>(e.u)];
    const int fv = plan.fragment_of[static_cast<std::size_t>(e.v)];
    if (fu == fv) {
      fragment_graph& f = fragments[static_cast<std::size_t>(fu)];
      f.graph.g.add_edge(local_of[static_cast<std::size_t>(e.u)],
                         local_of[static_cast<std::size_t>(e.v)]);
      f.graph.literal_of_edge.push_back(graph.literal_of_edge[i]);
      continue;
    }
    const int later = std::max(fu, fv);
    const graph::node_id earlier_global = fu < fv ? e.u : e.v;
    const graph::node_id later_local =
        local_of[static_cast<std::size_t>(fu < fv ? e.v : e.u)];
    fragment_graph& f = fragments[static_cast<std::size_t>(later)];
    auto& ports = port_of[static_cast<std::size_t>(later)];
    graph::node_id port_local;
    const auto it = ports.find(earlier_global);
    if (it == ports.end()) {
      port_local = f.graph.g.add_node();
      f.global_of.push_back(earlier_global);
      if (have_handles)
        f.graph.handle_of.push_back(
            graph.handle_of[static_cast<std::size_t>(earlier_global)]);
      f.ports.push_back(
          {port_local, earlier_global,
           plan.fragment_of[static_cast<std::size_t>(earlier_global)]});
      ports.emplace(earlier_global, port_local);
    } else {
      port_local = it->second;
    }
    f.graph.g.add_edge(port_local, later_local);
    f.graph.literal_of_edge.push_back(graph.literal_of_edge[i]);
  }

  // The terminal and each output bind only in their home fragments; the
  // stitched evaluation reaches them through the bridges. Constant outputs
  // need no hardware, so they ride on fragment 0.
  if (graph.terminal_node >= 0) {
    const std::size_t home =
        static_cast<std::size_t>(plan.fragment_of[static_cast<std::size_t>(
            graph.terminal_node)]);
    fragments[home].graph.terminal_node =
        local_of[static_cast<std::size_t>(graph.terminal_node)];
  }
  for (const bdd_graph::output_binding& out : graph.outputs) {
    const std::size_t home = static_cast<std::size_t>(
        plan.fragment_of[static_cast<std::size_t>(out.node)]);
    fragments[home].graph.outputs.push_back(
        {local_of[static_cast<std::size_t>(out.node)], out.name});
  }
  for (const auto& constant : graph.constant_outputs)
    fragments[0].graph.constant_outputs.push_back(constant);
  return fragments;
}

xbar::partitioned_design stitch_fragments(
    const bdd_graph& graph, const std::vector<fragment_graph>& fragments,
    std::vector<mapping_result> mapped) {
  check(mapped.size() == fragments.size(),
        "partition: one mapping per fragment expected");
  const int k = static_cast<int>(fragments.size());
  xbar::partitioned_design design;
  for (int f = 0; f < k; ++f) {
    xbar::crossbar array =
        std::move(mapped[static_cast<std::size_t>(f)].design);
    if (fragments[static_cast<std::size_t>(f)].graph.terminal_node < 0)
      array.clear_input_row();
    design.add_fragment(std::move(array));
  }

  const std::size_t n = graph.g.node_count();
  std::vector<int> home_fragment(n, -1);
  std::vector<graph::node_id> home_local(n, -1);
  for (int f = 0; f < k; ++f) {
    const fragment_graph& frag = fragments[static_cast<std::size_t>(f)];
    for (std::size_t i = 0; i < frag.member_count; ++i) {
      const auto global = static_cast<std::size_t>(frag.global_of[i]);
      home_fragment[global] = f;
      home_local[global] = static_cast<graph::node_id>(i);
    }
  }
  const auto wire_of = [&](int fragment, graph::node_id local) {
    const mapping_result& m = mapped[static_cast<std::size_t>(fragment)];
    xbar::wire_ref ref;
    ref.array = fragment;
    const auto v = static_cast<std::size_t>(local);
    if (m.row_of[v] >= 0) {
      ref.kind = xbar::wire_kind::row;
      ref.index = m.row_of[v];
    } else {
      ref.kind = xbar::wire_kind::column;
      ref.index = m.column_of[v];
    }
    return ref;
  };
  for (int f = 0; f < k; ++f)
    for (const fragment_graph::port& port :
         fragments[static_cast<std::size_t>(f)].ports) {
      const auto global = static_cast<std::size_t>(port.global);
      design.add_connection(wire_of(home_fragment[global], home_local[global]),
                            wire_of(f, port.local));
    }
  return design;
}

}  // namespace compact::core
