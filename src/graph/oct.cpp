#include "graph/oct.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <numeric>

#include "graph/bipartite.hpp"
#include "graph/product.hpp"
#include "graph/vertex_cover.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/stopwatch.hpp"

namespace compact::graph {
namespace {

/// Direct odd-cycle branch-and-bound. Vertices are undecided, kept or
/// deleted; the kept ones always induce a bipartite graph, tracked by a
/// parity union-find (union by size, no path compression, so a trail of
/// attached roots undoes it). Search state changes go on one trail and are
/// undone on backtrack.
class oct_search {
 public:
  oct_search(const undirected_graph& g, node_id anchor, double time_limit)
      : g_(g),
        state_(g.node_count(), undecided),
        uf_parent_(g.node_count()),
        uf_parity_(g.node_count(), 0),
        uf_size_(g.node_count(), 1),
        seen_(g.node_count(), 0),
        scanned_(g.node_count(), 0),
        taken_(g.node_count(), 0),
        root_seen_(g.node_count(), 0),
        root_parity_(g.node_count(), 0),
        color_(g.node_count(), 0),
        depth_(g.node_count(), 0),
        tree_parent_(g.node_count(), -1),
        component_of_(g.node_count(), -1),
        dist_(g.node_count(), 0),
        time_limit_(time_limit) {
    std::iota(uf_parent_.begin(), uf_parent_.end(), node_id{0});
    if (anchor >= 0) state_[static_cast<std::size_t>(anchor)] = kept;
  }

  /// Solve every connected component, starting from `incumbent` (a valid
  /// transversal avoiding the anchor).
  oct_result run(const std::vector<bool>& incumbent) {
    oct_result result;
    result.in_transversal.assign(g_.node_count(), false);
    result.optimal = true;

    std::vector<node_id> all(g_.node_count());
    std::iota(all.begin(), all.end(), node_id{0});
    packing root = pack(all, std::numeric_limits<int>::max());
    std::vector<std::size_t> order(root.components.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    // Small components first: they close fast, and a timeout then leaves
    // only the large ones on their incumbents.
    std::stable_sort(order.begin(), order.end(),
                     [&root](std::size_t a, std::size_t b) {
                       return root.components[a].size() <
                              root.components[b].size();
                     });

    for (const std::size_t c : order) {
      const std::vector<node_id>& verts = root.components[c];
      const int bound = root.component_bound[c];
      if (bound == 0) continue;  // bipartite component
      std::vector<node_id> chosen;
      for (const node_id v : verts)
        if (incumbent[static_cast<std::size_t>(v)]) chosen.push_back(v);
      int size = static_cast<int>(chosen.size());
      if (bound < size && !timed_out_) {
        int improved = 0;
        std::vector<node_id> better;
        if (solve(verts, size, improved, better)) {
          size = improved;
          chosen = std::move(better);
        }
      }
      const bool closed = bound == size || !timed_out_;
      if (!closed) result.optimal = false;
      result.lower_bound += static_cast<std::size_t>(closed ? size : bound);
      for (const node_id v : chosen)
        result.in_transversal[static_cast<std::size_t>(v)] = true;
      result.size += chosen.size();
    }
    result.search_nodes = nodes_;
    return result;
  }

  /// Visit every transversal of `size` vertices, `size` the minimum.
  oct_enumeration enumerate(int size, std::uint64_t node_limit,
                            const transversal_visitor& visit) {
    std::vector<node_id> all(g_.node_count());
    std::iota(all.begin(), all.end(), node_id{0});
    listing l{size, node_limit, &visit, {}, false, false};
    descend(all, 0, l);
    return {!l.ended && !l.capped, nodes_};
  }

 private:
  enum : char { undecided = 0, kept = 1, deleted = 2 };

  /// Greedy odd-cycle packing of a vertex set, plus its connected
  /// components (over non-deleted vertices) from the first sweep.
  struct packing {
    std::vector<std::vector<node_id>> components;
    std::vector<int> component_bound;  // disjoint odd cycles per component
    int bound = 0;
    /// Undecided vertices of the packed cycle with the fewest of them.
    std::vector<node_id> branch;
  };

  /// Local incumbent of one component solve.
  struct frame {
    int best;                            // exclusive: improve below this
    std::vector<node_id> best_set;       // deletions achieving `best`
    const std::vector<node_id>* verts;   // the component's vertices
  };

  /// State of one enumeration of minimum transversals.
  struct listing {
    int size;                           // deletions every transversal has
    std::uint64_t node_limit;
    const transversal_visitor* visit;
    std::vector<bool> transversal;      // the visited set, reused
    bool ended;                         // the visitor ended the search
    bool capped;                        // a node past the limit was cut
  };

  // --- state changes with undo -----------------------------------------

  struct found_root {
    node_id root;
    int parity;  // colour of the vertex relative to its root
  };

  [[nodiscard]] found_root find(node_id v) const {
    int parity = 0;
    while (uf_parent_[static_cast<std::size_t>(v)] != v) {
      parity ^= uf_parity_[static_cast<std::size_t>(v)];
      v = uf_parent_[static_cast<std::size_t>(v)];
    }
    return {v, parity};
  }

  void remove(node_id v) {
    state_[static_cast<std::size_t>(v)] = deleted;
    trail_.push_back(v);
  }

  /// Keep `v`, merging it with its kept neighbours. Returns false when that
  /// closes an odd cycle among kept vertices (the caller undoes the trail).
  bool keep(node_id v) {
    state_[static_cast<std::size_t>(v)] = kept;
    trail_.push_back(v);
    for (const node_id w : g_.neighbors(v)) {
      if (state_[static_cast<std::size_t>(w)] != kept) continue;
      const found_root a = find(v);
      const found_root b = find(w);
      if (a.root == b.root) {
        if (a.parity == b.parity) return false;
        continue;
      }
      // Attach the smaller tree so that v and w get different colours.
      const bool a_small = uf_size_[static_cast<std::size_t>(a.root)] <
                           uf_size_[static_cast<std::size_t>(b.root)];
      const node_id child = a_small ? a.root : b.root;
      const node_id parent = a_small ? b.root : a.root;
      uf_parent_[static_cast<std::size_t>(child)] = parent;
      uf_parity_[static_cast<std::size_t>(child)] = a.parity ^ b.parity ^ 1;
      uf_size_[static_cast<std::size_t>(parent)] +=
          uf_size_[static_cast<std::size_t>(child)];
      trail_.push_back(~child);  // negative entries record a union
    }
    return true;
  }

  void undo_to(std::size_t mark) {
    while (trail_.size() > mark) {
      const node_id entry = trail_.back();
      trail_.pop_back();
      if (entry < 0) {
        const node_id child = ~entry;
        const node_id parent = uf_parent_[static_cast<std::size_t>(child)];
        uf_size_[static_cast<std::size_t>(parent)] -=
            uf_size_[static_cast<std::size_t>(child)];
        uf_parent_[static_cast<std::size_t>(child)] = child;
        uf_parity_[static_cast<std::size_t>(child)] = 0;
      } else {
        state_[static_cast<std::size_t>(entry)] = undecided;
      }
    }
  }

  /// Search-time reductions, to a fixpoint. An undecided vertex whose kept
  /// neighbours need both colours closes an odd cycle on its own: delete
  /// it. One with at most two live neighbours, one of them undecided, can be
  /// kept: every cycle through it passes that neighbour, so swapping it for
  /// the neighbour never makes a transversal larger. Returns the number of
  /// deletions.
  int reduce(const std::vector<node_id>& verts) {
    int forced = 0;
    bool changed = true;
    while (changed) {
      changed = false;
      for (const node_id v : verts) {
        if (state_[static_cast<std::size_t>(v)] != undecided) continue;
        ++root_stamp_;
        int live_degree = 0;
        bool undecided_neighbor = false;
        bool conflict = false;
        for (const node_id w : g_.neighbors(v)) {
          const char state = state_[static_cast<std::size_t>(w)];
          if (state == deleted) continue;
          ++live_degree;
          if (state == undecided) {
            undecided_neighbor = true;
            continue;
          }
          const found_root r = find(w);
          const auto ri = static_cast<std::size_t>(r.root);
          if (root_seen_[ri] != root_stamp_) {
            root_seen_[ri] = root_stamp_;
            root_parity_[ri] = static_cast<char>(r.parity);
          } else if (root_parity_[ri] != r.parity) {
            conflict = true;
            break;
          }
        }
        if (conflict) {
          remove(v);
          ++forced;
          changed = true;
        } else if (live_degree < 2 ||
                   (live_degree == 2 && undecided_neighbor)) {
          check(keep(v), "oct: a low-degree keep closed an odd cycle");
          changed = true;
        }
      }
    }
    return forced;
  }

  // --- bounding ----------------------------------------------------------

  [[nodiscard]] bool live(node_id v) const {
    const auto i = static_cast<std::size_t>(v);
    return state_[i] != deleted &&
           !(taken_[i] >= pack_base_ && taken_[i] < stamp_);
  }

  /// Trace the odd cycle closed by the same-colour edge {u, w} through the
  /// BFS tree. Packs it when none of its undecided vertices is taken.
  bool pack_cycle(node_id u, node_id w, packing& p) {
    cycle_.clear();
    const auto visit = [this](node_id v) {
      const auto i = static_cast<std::size_t>(v);
      if (state_[i] != undecided) return true;
      if (taken_[i] >= pack_base_) return false;
      cycle_.push_back(v);
      return true;
    };
    node_id a = u;
    node_id b = w;
    while (a != b) {
      node_id& up = depth_[static_cast<std::size_t>(a)] >=
                            depth_[static_cast<std::size_t>(b)]
                        ? a
                        : b;
      if (!visit(up)) return false;
      up = tree_parent_[static_cast<std::size_t>(up)];
    }
    if (!visit(a)) return false;
    check(!cycle_.empty(), "oct: kept vertices closed an odd cycle");
    for (const node_id v : cycle_)
      taken_[static_cast<std::size_t>(v)] = stamp_;
    if (p.branch.empty() || cycle_.size() < p.branch.size()) p.branch = cycle_;
    return true;
  }

  /// One 2-colouring sweep over the live vertices of `verts`; every
  /// same-colour edge closes an odd cycle through the search tree, packed
  /// when disjoint from the ones before it. When `weighted`, the tree is a
  /// 0-1 BFS in which only undecided vertices cost a step, so tree paths,
  /// and the cycles they close, carry few undecided vertices; otherwise it
  /// is a plain BFS. The first sweep records the components; later sweeps
  /// skip the vertices taken before them and the components that stopped
  /// yielding cycles. Returns the number packed.
  int sweep(const std::vector<node_id>& verts, bool weighted, packing& p,
            std::vector<char>& active) {
    const bool first = ++stamp_ == pack_base_;
    std::vector<char> swept(active.size(), 0);
    swept.swap(active);  // active now collects this sweep's packers
    int packed = 0;
    const auto cost = [this, weighted](std::size_t i) {
      return state_[i] == undecided || !weighted ? 1 : 0;
    };
    for (const node_id s : verts) {
      const auto si = static_cast<std::size_t>(s);
      if (seen_[si] == stamp_ || !live(s)) continue;
      if (first) {
        component_of_[si] = static_cast<int>(p.components.size());
        p.components.emplace_back();
        p.component_bound.push_back(0);
        active.push_back(0);
      } else if (!swept[static_cast<std::size_t>(component_of_[si])]) {
        continue;
      }
      const int c = component_of_[si];
      order_.clear();
      frontier_.clear();
      frontier_.push_back(s);
      seen_[si] = stamp_;
      dist_[si] = cost(si);
      color_[si] = 0;
      depth_[si] = 0;
      tree_parent_[si] = -1;
      while (!frontier_.empty()) {
        const node_id u = frontier_.front();
        frontier_.pop_front();
        const auto ui = static_cast<std::size_t>(u);
        if (scanned_[ui] == stamp_) continue;  // a stale second entry
        scanned_[ui] = stamp_;
        order_.push_back(u);
        for (const node_id w : g_.neighbors(u)) {
          const auto wi = static_cast<std::size_t>(w);
          if (scanned_[wi] == stamp_) {
            if (color_[wi] == color_[ui] && pack_cycle(u, w, p)) {
              ++p.component_bound[static_cast<std::size_t>(c)];
              active[static_cast<std::size_t>(c)] = 1;
              ++packed;
            }
            continue;
          }
          const int reach = dist_[ui] + cost(wi);
          if (seen_[wi] == stamp_ ? reach >= dist_[wi] : !live(w)) continue;
          seen_[wi] = stamp_;
          dist_[wi] = reach;
          color_[wi] = static_cast<char>(color_[ui] ^ 1);
          depth_[wi] = depth_[ui] + 1;
          tree_parent_[wi] = u;
          if (cost(wi) == 0) {
            frontier_.push_front(w);
          } else {
            frontier_.push_back(w);
          }
        }
      }
      if (first) {
        p.components.back() = order_;
        for (const node_id v : order_)
          component_of_[static_cast<std::size_t>(v)] = c;
      }
    }
    return packed;
  }

  /// Sweep until no new cycle is packed. A component that packs nothing in
  /// one sweep packs nothing later (later sweeps only block more vertices),
  /// so each sweep revisits only the components that packed in the last.
  packing pack_once(const std::vector<node_id>& verts, bool weighted) {
    packing p;
    pack_base_ = stamp_ + 1;
    std::vector<char> active;
    while (sweep(verts, weighted, p, active) > 0) {
    }
    for (const int b : p.component_bound) p.bound += b;
    return p;
  }

  /// Two packings, one from 0-1 BFS trees and one from plain BFS trees
  /// (each wins on some graphs), combined per component; the second is
  /// skipped when the first already reaches `enough`.
  packing pack(const std::vector<node_id>& verts, int enough) {
    packing p = pack_once(verts, /*weighted=*/true);
    if (p.bound == 0 || p.bound >= enough) return p;
    const packing q = pack_once(verts, /*weighted=*/false);
    p.bound = 0;
    for (std::size_t c = 0; c < p.component_bound.size(); ++c) {
      p.component_bound[c] =
          std::max(p.component_bound[c], q.component_bound[c]);
      p.bound += p.component_bound[c];
    }
    if (q.branch.size() < p.branch.size()) p.branch = q.branch;
    return p;
  }

  // --- search ------------------------------------------------------------

  bool out_of_time() {
    if (!timed_out_ && clock_.seconds() > time_limit_) timed_out_ = true;
    return timed_out_;
  }

  /// Minimum deletions for the component `verts` below `limit`; on success
  /// returns true and appends the deletions to `out`.
  bool solve(const std::vector<node_id>& verts, int limit, int& size,
             std::vector<node_id>& out) {
    frame f{limit, {}, &verts};
    search(verts, 0, f);
    if (f.best >= limit) return false;
    size = f.best;
    out.insert(out.end(), f.best_set.begin(), f.best_set.end());
    return true;
  }

  void record(frame& f, int total, const std::vector<node_id>& extra) {
    if (total >= f.best) return;
    f.best = total;
    f.best_set.clear();
    for (const node_id v : *f.verts)
      if (state_[static_cast<std::size_t>(v)] == deleted)
        f.best_set.push_back(v);
    f.best_set.insert(f.best_set.end(), extra.begin(), extra.end());
    check(static_cast<int>(f.best_set.size()) == total,
          "oct: incumbent size mismatch");
  }

  void search(const std::vector<node_id>& verts, int deleted_count,
              frame& f) {
    ++nodes_;
    if (out_of_time()) return;
    const std::size_t mark = trail_.size();
    deleted_count += reduce(verts);
    if (deleted_count < f.best) {
      const packing p = pack(verts, f.best - deleted_count);
      std::vector<std::size_t> odd;  // components that still need deletions
      for (std::size_t c = 0; c < p.components.size(); ++c)
        if (p.component_bound[c] > 0) odd.push_back(c);
      if (deleted_count + p.bound >= f.best) {
        // pruned
      } else if (odd.empty()) {
        record(f, deleted_count, {});
      } else if (odd.size() == 1) {
        branch(p.components[odd.front()], p.branch, deleted_count, f);
      } else {
        split(p, odd, deleted_count, f);
      }
    }
    undo_to(mark);
  }

  /// Sequential branching on an odd cycle's undecided vertices: child i
  /// deletes c_i and keeps c_1..c_{i-1}. Every transversal deletes one of
  /// them, so the children cover the space without overlap. Every child
  /// costs one deletion, so none is left once that reaches the incumbent.
  void branch(const std::vector<node_id>& verts, std::vector<node_id> cycle,
              int deleted_count, frame& f) {
    order_by_degree(cycle);
    const std::size_t mark = trail_.size();
    for (const node_id v : cycle) {
      const std::size_t inner = trail_.size();
      remove(v);
      search(verts, deleted_count + 1, f);
      undo_to(inner);
      if (timed_out_ || deleted_count + 1 >= f.best || !keep(v)) break;
    }
    undo_to(mark);
  }

  /// Branching order: high degree first, then by id.
  void order_by_degree(std::vector<node_id>& cycle) const {
    std::sort(cycle.begin(), cycle.end(), [this](node_id a, node_id b) {
      const std::size_t da = g_.degree(a);
      const std::size_t db = g_.degree(b);
      return da != db ? da > db : a < b;
    });
  }

  /// One enumeration node: the branching of `branch` with the packing bound
  /// against the deletions left, and a visit wherever the live graph is
  /// bipartite. Every transversal that keeps the kept vertices and deletes
  /// the deleted ones deletes an undecided vertex of each odd cycle; the
  /// first of them in the cycle's order names the one child it lies under,
  /// so each minimum transversal is reached exactly once.
  void descend(const std::vector<node_id>& verts, int deleted_count,
               listing& l) {
    if (l.ended || l.capped) return;
    if (nodes_ == l.node_limit) {
      l.capped = true;
      return;
    }
    ++nodes_;
    packing p = pack(verts, l.size - deleted_count + 1);
    if (deleted_count + p.bound > l.size) return;
    if (p.bound == 0) {
      check(deleted_count == l.size,
            "enumerate_minimum_transversals: size is not the minimum");
      l.transversal.assign(g_.node_count(), false);
      for (const node_id v : verts)
        if (state_[static_cast<std::size_t>(v)] == deleted)
          l.transversal[static_cast<std::size_t>(v)] = true;
      l.ended = (*l.visit)(l.transversal);
      return;
    }
    order_by_degree(p.branch);
    const std::size_t mark = trail_.size();
    for (const node_id v : p.branch) {
      const std::size_t inner = trail_.size();
      remove(v);
      descend(verts, deleted_count + 1, l);
      undo_to(inner);
      if (l.ended || l.capped || !keep(v)) break;
    }
    undo_to(mark);
  }

  /// The live graph fell apart into several non-bipartite components: solve
  /// each on its own (smallest first) within what the others leave of the
  /// budget, and combine.
  void split(const packing& p, std::vector<std::size_t> odd,
             int deleted_count, frame& f) {
    std::stable_sort(odd.begin(), odd.end(),
                     [&p](std::size_t a, std::size_t b) {
                       return p.components[a].size() < p.components[b].size();
                     });
    int rest = 0;
    for (const std::size_t c : odd) rest += p.component_bound[c];
    int total = deleted_count;
    std::vector<node_id> chosen;
    for (const std::size_t c : odd) {
      rest -= p.component_bound[c];
      const int limit = f.best - total - rest;
      if (limit <= p.component_bound[c]) return;
      int size = 0;
      if (!solve(p.components[c], limit, size, chosen)) return;
      total += size;
    }
    record(f, total, chosen);
  }

  const undirected_graph& g_;
  std::vector<char> state_;
  std::vector<node_id> uf_parent_;
  std::vector<int> uf_parity_;
  std::vector<int> uf_size_;
  std::vector<node_id> trail_;

  // Scratch for sweeps and propagation, stamped instead of cleared.
  std::vector<std::uint64_t> seen_;
  std::vector<std::uint64_t> scanned_;
  std::vector<std::uint64_t> taken_;
  std::vector<std::uint64_t> root_seen_;
  std::vector<char> root_parity_;
  std::vector<char> color_;
  std::vector<int> depth_;
  std::vector<node_id> tree_parent_;
  std::vector<int> component_of_;
  std::vector<int> dist_;
  std::deque<node_id> frontier_;
  std::vector<node_id> order_;
  std::vector<node_id> cycle_;
  std::uint64_t stamp_ = 0;
  std::uint64_t pack_base_ = 0;
  std::uint64_t root_stamp_ = 0;

  std::uint64_t nodes_ = 0;
  stopwatch clock_;
  double time_limit_;
  bool timed_out_ = false;
};

/// The paper's route: a minimum vertex cover of G x K2 as an ILP, with
/// x_z + x_z' <= 1 keeping the anchor z out of the transversal.
oct_result lemma1_ilp(const undirected_graph& g, const oct_options& options) {
  const undirected_graph product = cartesian_product_k2(g);
  const auto n = static_cast<node_id>(g.node_count());
  std::vector<edge> not_both;
  if (options.anchor >= 0)
    not_both.push_back({options.anchor, options.anchor + n});
  milp::mip_options mip;
  mip.time_limit_seconds = options.time_limit_seconds;
  mip.threads = options.threads;
  const vertex_cover_result cover =
      min_vertex_cover_ilp(product, mip, not_both);

  oct_result result;
  result.in_transversal.assign(g.node_count(), false);
  for (node_id v = 0; v < n; ++v) {
    if (cover.in_cover[static_cast<std::size_t>(v)] &&
        cover.in_cover[static_cast<std::size_t>(v + n)]) {
      result.in_transversal[static_cast<std::size_t>(v)] = true;
      ++result.size;
    }
  }
  result.optimal = cover.optimal;
  if (!cover.optimal) {
    // A timed-out cover may double-cover a non-transversal, or a poor one;
    // the greedy transversal bounds the damage.
    oct_result greedy = greedy_odd_cycle_transversal(g, options.anchor);
    if (!is_odd_cycle_transversal(g, result.in_transversal) ||
        greedy.size < result.size) {
      result = std::move(greedy);
      result.optimal = false;
    }
  }
  result.lower_bound = result.optimal ? result.size : 0;
  return result;
}

}  // namespace

bool is_odd_cycle_transversal(const undirected_graph& g,
                              const std::vector<bool>& transversal) {
  if (transversal.size() != g.node_count()) return false;
  std::vector<bool> keep(g.node_count());
  for (std::size_t v = 0; v < g.node_count(); ++v) keep[v] = !transversal[v];
  return is_bipartite(g.induced_subgraph(keep).subgraph);
}

oct_result greedy_odd_cycle_transversal(const undirected_graph& g,
                                        node_id anchor) {
  oct_result result;
  result.in_transversal.assign(g.node_count(), false);

  // Repeated BFS 2-coloring; on a conflict edge, delete the endpoint with
  // the larger degree (never the anchor) and restart. Terminates because
  // each round deletes a vertex.
  std::vector<bool> deleted(g.node_count(), false);
  while (true) {
    std::vector<int> color(g.node_count(), -1);
    node_id conflict = -1;
    for (node_id start = 0;
         start < static_cast<node_id>(g.node_count()) && conflict == -1;
         ++start) {
      if (deleted[start] || color[start] != -1) continue;
      color[start] = 0;
      std::vector<node_id> stack{start};
      while (!stack.empty() && conflict == -1) {
        const node_id u = stack.back();
        stack.pop_back();
        for (node_id w : g.neighbors(u)) {
          if (deleted[w]) continue;
          if (color[w] == -1) {
            color[w] = 1 - color[u];
            stack.push_back(w);
          } else if (color[w] == color[u]) {
            conflict = g.degree(u) >= g.degree(w) ? u : w;
            if (conflict == anchor) conflict = conflict == u ? w : u;
            break;
          }
        }
      }
    }
    if (conflict == -1) break;
    deleted[conflict] = true;
    result.in_transversal[conflict] = true;
    ++result.size;
  }

  // Redundancy elimination: the greedy pass may delete more vertices than
  // necessary; try to re-admit each deleted vertex. The rest of the graph
  // is bipartite, so a probe only 2-colors the component the vertex would
  // rejoin. Each probe can still cost O(n + m), so the pass is skipped
  // when the total would get out of hand on very large graphs.
  const double probe_cost = static_cast<double>(result.size) *
                            static_cast<double>(g.node_count() +
                                                g.edge_count());
  if (probe_cost <= 5e7) {
    std::vector<int> color(g.node_count(), -1);
    std::vector<node_id> visited;
    const auto rejoins_bipartite = [&](node_id v) {
      bool bipartite = true;
      visited.assign(1, v);
      color[static_cast<std::size_t>(v)] = 0;
      for (std::size_t head = 0; head < visited.size() && bipartite; ++head) {
        const node_id u = visited[head];
        for (const node_id w : g.neighbors(u)) {
          if (deleted[static_cast<std::size_t>(w)]) continue;
          int& cw = color[static_cast<std::size_t>(w)];
          if (cw == -1) {
            cw = 1 - color[static_cast<std::size_t>(u)];
            visited.push_back(w);
          } else if (cw == color[static_cast<std::size_t>(u)]) {
            bipartite = false;
            break;
          }
        }
      }
      for (const node_id u : visited) color[static_cast<std::size_t>(u)] = -1;
      return bipartite;
    };
    for (node_id v = 0; v < static_cast<node_id>(g.node_count()); ++v) {
      if (!deleted[static_cast<std::size_t>(v)]) continue;
      deleted[static_cast<std::size_t>(v)] = false;
      if (rejoins_bipartite(v)) {
        result.in_transversal[static_cast<std::size_t>(v)] = false;
        --result.size;
      } else {
        deleted[static_cast<std::size_t>(v)] = true;
      }
    }
  }

  result.optimal = result.size == 0;  // only provably optimal when empty
  check(is_odd_cycle_transversal(g, result.in_transversal),
        "greedy OCT produced an invalid transversal");
  return result;
}

oct_enumeration enumerate_minimum_transversals(
    const undirected_graph& g, node_id anchor, std::size_t size,
    std::uint64_t node_limit, const transversal_visitor& visit) {
  check(anchor < static_cast<node_id>(g.node_count()),
        "enumerate_minimum_transversals: anchor out of range");
  oct_search search(g, anchor, std::numeric_limits<double>::infinity());
  return search.enumerate(static_cast<int>(size), node_limit, visit);
}

oct_result odd_cycle_transversal(const undirected_graph& g,
                                 const oct_options& options) {
  check(options.anchor < static_cast<node_id>(g.node_count()),
        "odd_cycle_transversal: anchor out of range");
  oct_result result;
  if (is_bipartite(g)) {
    result.in_transversal.assign(g.node_count(), false);
    result.optimal = true;
  } else if (options.engine == oct_engine::ilp) {
    result = lemma1_ilp(g, options);
  } else {
    const oct_result greedy = greedy_odd_cycle_transversal(g, options.anchor);
    oct_search search(g, options.anchor, options.time_limit_seconds);
    result = search.run(greedy.in_transversal);
    if (metrics_enabled()) {
      static metric_counter& search_nodes =
          global_metrics().counter("graph.oct.search_nodes");
      search_nodes.add(result.search_nodes);
    }
  }
  check(is_odd_cycle_transversal(g, result.in_transversal),
        "odd_cycle_transversal produced an invalid transversal");
  check(options.anchor < 0 ||
            !result.in_transversal[static_cast<std::size_t>(options.anchor)],
        "odd_cycle_transversal deleted the anchor");
  return result;
}

}  // namespace compact::graph
