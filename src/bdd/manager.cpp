#include "bdd/manager.hpp"

#include <algorithm>
#include <cmath>

#include "util/memtrack.hpp"
#include "util/metrics.hpp"
#include "util/watchdog.hpp"

namespace compact::bdd {
namespace {

constexpr std::uint32_t max_variables = (1u << 10) - 1;
// Default live-node cap. Handles are dense 32-bit values; the cap exists to
// turn a runaway build into a clean compact::error instead of memory
// exhaustion, and tests lower it to drive the overflow path.
constexpr std::size_t default_node_limit = (std::size_t{1} << 27) - 1;

// Unique-table sizing: power-of-two capacity, grown at 3/4 load.
constexpr std::size_t initial_table_capacity = 1u << 10;

// Computed-table sizing: starts small, doubles under sustained miss
// pressure (one miss per entry since the last resize), and never exceeds
// the cap — beyond that collisions evict, which costs recomputation only.
// The start fits a served request's SBDD (tens of nodes) in 16 KiB.
constexpr std::size_t initial_ite_cache_capacity = 1u << 10;
constexpr std::size_t max_ite_cache_capacity = 1u << 21;

std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Unique-table hash over the full (var, low, high) triple. Handles are
/// mixed through two finalizer rounds so every input bit reaches every
/// output bit — no field is shifted off the top.
std::uint64_t hash_node(std::int32_t var, node_handle low, node_handle high) {
  const std::uint64_t children =
      (static_cast<std::uint64_t>(low) << 32) | high;
  return mix64(mix64(children) ^ static_cast<std::uint64_t>(var));
}

/// Computed-table hash: same full-width mixing discipline. (The previous
/// engine shifted f left by 42, silently discarding its top bits and
/// colliding distinct triples on large managers.)
std::uint64_t hash_ite(node_handle f, node_handle g, node_handle h) {
  const std::uint64_t fg = (static_cast<std::uint64_t>(f) << 32) | g;
  return mix64(mix64(fg) ^ h);
}

}  // namespace

manager::manager(int variable_count)
    : manager(variable_count, default_node_limit) {}

manager::manager(int variable_count, std::size_t node_limit)
    : variable_count_(variable_count), node_limit_(node_limit) {
  check(variable_count >= 0 &&
            variable_count <= static_cast<int>(max_variables),
        "bdd::manager supports at most 1023 variables");
  check(node_limit >= 2, "bdd::manager node limit below the two terminals");
  chunks_.push_back(std::make_unique_for_overwrite<chunk>());
  live_bits_.assign((chunk_capacity + 63) / 64, 0);
  // Terminal slots 0 and 1 (var = terminal_var; children self-describe).
  chunks_[0]->var[0] = terminal_var;
  chunks_[0]->low[0] = false_handle;
  chunks_[0]->high[0] = false_handle;
  chunks_[0]->var[1] = terminal_var;
  chunks_[0]->low[1] = true_handle;
  chunks_[0]->high[1] = true_handle;
  slot_count_ = 2;
  live_count_ = 2;
  set_live(false_handle);
  set_live(true_handle);
  table_.assign(initial_table_capacity, false_handle);
  ite_cache_.assign(initial_ite_cache_capacity, ite_entry{});
  account_memory();
}

manager::~manager() {
  // Drain whatever this manager charged, regardless of the current enabled
  // flag, so accounts return to baseline when a manager dies mid-run.
  const bool was_enabled = memtrack_enabled();
  set_memtrack_enabled(false);
  account_memory();
  set_memtrack_enabled(was_enabled);
}

void manager::account_memory() {
  static mem_account& arena = memtrack_account("bdd.arena");
  static mem_account& table = memtrack_account("bdd.unique_table");
  static mem_account& ite_cache = memtrack_account("bdd.ite_cache");
  account_set(arena, arena_bytes_accounted_,
              chunks_.size() * sizeof(chunk) +
                  live_bits_.capacity() * sizeof(std::uint64_t) +
                  free_.capacity() * sizeof(node_handle));
  account_set(table, table_bytes_accounted_,
              table_.capacity() * sizeof(node_handle));
  account_set(ite_cache, ite_bytes_accounted_,
              ite_cache_.capacity() * sizeof(ite_entry));
}

node manager::at(node_handle f) const {
  check(f < slot_count_ && is_live(f), "bdd: dangling node handle");
  return {var_of(f), low_of(f), high_of(f)};
}

node_handle manager::allocate_slot() {
  if (!free_.empty()) {
    const node_handle h = free_.back();
    free_.pop_back();
    return h;
  }
  if (slot_count_ == chunks_.size() * chunk_capacity) {
    // Arena growth is the structural boundary inside a large build: sample
    // the resource watchdog here (before any mutation, so a memory or
    // deadline trip leaves the manager untouched) and re-account the arena
    // after the new chunk lands. Overshoot past a memory limit is bounded
    // by one chunk per trip.
    (void)resource_checkpoint("bdd.arena_growth");
    chunks_.push_back(std::make_unique_for_overwrite<chunk>());
    live_bits_.resize((chunks_.size() * chunk_capacity + 63) / 64, 0);
    account_memory();
  }
  return static_cast<node_handle>(slot_count_++);
}

void manager::insert_unique(node_handle h) {
  const std::size_t mask = table_.size() - 1;
  std::size_t slot = hash_node(var_of(h), low_of(h), high_of(h)) & mask;
  while (table_[slot] != false_handle) slot = (slot + 1) & mask;
  table_[slot] = h;
  ++table_entries_;
}

void manager::grow_unique_table() {
  std::vector<node_handle> old;
  old.swap(table_);
  table_.assign(old.size() * 2, false_handle);
  table_entries_ = 0;
  for (const node_handle h : old)
    if (h != false_handle) insert_unique(h);
  account_memory();
}

node_handle manager::make_node(std::int32_t var, node_handle low,
                               node_handle high) {
  if (low == high) return low;  // reduction rule
  const std::size_t mask = table_.size() - 1;
  std::size_t slot = hash_node(var, low, high) & mask;
  while (true) {
    const node_handle entry = table_[slot];
    if (entry == false_handle) break;
    if (var_of(entry) == var && low_of(entry) == low && high_of(entry) == high)
      return entry;
    slot = (slot + 1) & mask;
  }
  // Capacity check before any mutation: a throw here must leave no trace
  // (the previous engine registered the handle first, leaving the unique
  // table pointing one past the node array after an overflow).
  check(live_count_ < node_limit_, "bdd: node table overflow");
  const node_handle h = allocate_slot();
  chunk& c = *chunks_[h >> chunk_shift];
  const std::size_t i = h & chunk_mask;
  c.var[i] = var;
  c.low[i] = low;
  c.high[i] = high;
  set_live(h);
  ++live_count_;
  table_[slot] = h;
  ++table_entries_;
  ++stats_.unique_inserts;
  if ((table_entries_ + 1) * 4 > table_.size() * 3) grow_unique_table();
  return h;
}

node_handle manager::var(int index) {
  check(index >= 0 && index < variable_count_, "bdd: variable out of range");
  return make_node(index, false_handle, true_handle);
}

node_handle manager::nvar(int index) {
  check(index >= 0 && index < variable_count_, "bdd: variable out of range");
  return make_node(index, true_handle, false_handle);
}

node_handle manager::canonical_node(std::int32_t var, node_handle low,
                                    node_handle high) {
  check(var >= 0 && var < variable_count_,
        "bdd::canonical_node: variable out of range");
  check(low < slot_count_ && is_live(low) && high < slot_count_ &&
            is_live(high),
        "bdd::canonical_node: dangling child handle");
  check(level(low) > var && level(high) > var,
        "bdd::canonical_node: children must have larger levels");
  return make_node(var, low, high);
}

void manager::ite_cache_insert(node_handle f, node_handle g, node_handle h,
                               node_handle result) {
  ite_entry& e = ite_cache_[hash_ite(f, g, h) & (ite_cache_.size() - 1)];
  if (e.f != false_handle && !(e.f == f && e.g == g && e.h == h))
    ++stats_.ite_cache_evictions;
  e = {f, g, h, result};
}

void manager::maybe_grow_ite_cache() {
  if (ite_cache_.size() >= max_ite_cache_capacity) return;
  if (stats_.ite_cache_misses - ite_misses_at_resize_ < ite_cache_.size())
    return;
  std::vector<ite_entry> old;
  old.swap(ite_cache_);
  ite_cache_.assign(old.size() * 2, ite_entry{});
  for (const ite_entry& e : old) {
    if (e.f == false_handle) continue;
    ite_cache_[hash_ite(e.f, e.g, e.h) & (ite_cache_.size() - 1)] = e;
  }
  ite_misses_at_resize_ = stats_.ite_cache_misses;
  account_memory();
}

node_handle manager::ite(node_handle f, node_handle g, node_handle h) {
  // Terminal cases.
  if (f == true_handle) return g;
  if (f == false_handle) return h;
  if (g == h) return g;
  if (g == true_handle && h == false_handle) return f;

  ++stats_.ite_calls;
  ite_entry& e = ite_cache_[hash_ite(f, g, h) & (ite_cache_.size() - 1)];
  if (e.f == f && e.g == g && e.h == h) {
    ++stats_.ite_cache_hits;
    return e.result;
  }
  ++stats_.ite_cache_misses;
  maybe_grow_ite_cache();

  const std::int32_t top = std::min({level(f), level(g), level(h)});

  auto cofactor = [&](node_handle u, bool high_branch) {
    if (level(u) != top) return u;
    return high_branch ? high_of(u) : low_of(u);
  };

  ++ite_depth_;
  stats_.max_ite_depth = std::max(stats_.max_ite_depth, ite_depth_);
  interval_max_ite_depth_ = std::max(interval_max_ite_depth_, ite_depth_);
  const node_handle high =
      ite(cofactor(f, true), cofactor(g, true), cofactor(h, true));
  const node_handle low =
      ite(cofactor(f, false), cofactor(g, false), cofactor(h, false));
  --ite_depth_;
  const node_handle result = make_node(top, low, high);
  ite_cache_insert(f, g, h, result);
  return result;
}

void manager::publish_metrics() const {
  if (!metrics_enabled()) return;
  // Handles resolved once per process: a registry lookup per name at every
  // stage boundary cost more than the counters it published.
  metrics_registry& registry = global_metrics();
  static metric_counter& ite_calls = registry.counter("bdd.ite_calls");
  static metric_counter& hits = registry.counter("bdd.ite_cache_hits");
  static metric_counter& misses = registry.counter("bdd.ite_cache_misses");
  static metric_counter& evictions =
      registry.counter("bdd.ite_cache_evictions");
  static metric_counter& inserts = registry.counter("bdd.unique_inserts");
  static metric_counter& restricts = registry.counter("bdd.restrict_calls");
  static metric_counter& gc_runs = registry.counter("bdd.gc_runs");
  static metric_counter& gc_reclaimed = registry.counter("bdd.gc_reclaimed");
  static metric_gauge& table_size = registry.gauge("bdd.unique_table_size");
  static metric_gauge& table_load = registry.gauge("bdd.unique_table_load");
  const auto delta = [](std::uint64_t now, std::uint64_t& prev) {
    const std::uint64_t d = now - prev;
    prev = now;
    return d;
  };
  ite_calls.add(delta(stats_.ite_calls, published_.ite_calls));
  hits.add(delta(stats_.ite_cache_hits, published_.ite_cache_hits));
  misses.add(delta(stats_.ite_cache_misses, published_.ite_cache_misses));
  evictions.add(
      delta(stats_.ite_cache_evictions, published_.ite_cache_evictions));
  inserts.add(delta(stats_.unique_inserts, published_.unique_inserts));
  restricts.add(delta(stats_.restrict_calls, published_.restrict_calls));
  gc_runs.add(delta(stats_.gc_runs, published_.gc_runs));
  gc_reclaimed.add(delta(stats_.gc_reclaimed, published_.gc_reclaimed));
  table_size.set(static_cast<double>(live_count_));
  table_load.set(unique_table_load());
  // Per-interval watermark, not the lifetime max: observing the cumulative
  // max at every stage boundary re-counted the same deep chain once per
  // stage and skewed the histogram's quantiles.
  if (interval_max_ite_depth_ > 0) {
    static metric_histogram& depth = registry.histogram(
        "bdd.max_ite_depth", {4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0});
    depth.observe(static_cast<double>(interval_max_ite_depth_));
    interval_max_ite_depth_ = 0;
  }
}

// --- garbage collection ---------------------------------------------------

void manager::protect(node_handle f) {
  check(f < slot_count_ && is_live(f), "bdd::protect: dangling node handle");
  ++protected_[f];
}

void manager::unprotect(node_handle f) {
  const auto it = protected_.find(f);
  check(it != protected_.end(), "bdd::unprotect: handle is not protected");
  if (--it->second == 0) protected_.erase(it);
}

manager::gc_result manager::collect_garbage(
    const std::vector<node_handle>& extra_roots) {
  // Mark: iterative DFS from terminals, protected roots, and extra roots.
  std::vector<std::uint64_t> marked((slot_count_ + 63) / 64, 0);
  const auto is_marked = [&](node_handle u) {
    return (marked[u >> 6] >> (u & 63)) & 1;
  };
  const auto set_marked = [&](node_handle u) {
    marked[u >> 6] |= std::uint64_t{1} << (u & 63);
  };
  set_marked(false_handle);
  set_marked(true_handle);
  std::vector<node_handle> stack;
  const auto push_root = [&](node_handle r) {
    check(r < slot_count_ && is_live(r), "bdd: GC root is dangling");
    if (is_marked(r)) return;
    set_marked(r);
    stack.push_back(r);
  };
  for (const node_handle r : extra_roots) push_root(r);
  for (const auto& [r, count] : protected_) {
    (void)count;
    push_root(r);
  }
  while (!stack.empty()) {
    const node_handle u = stack.back();
    stack.pop_back();
    if (is_terminal(u)) continue;
    for (const node_handle child : {low_of(u), high_of(u)}) {
      if (!is_marked(child)) {
        set_marked(child);
        stack.push_back(child);
      }
    }
  }

  // Sweep: unmarked live slots join the free list (sorted descending so
  // pop_back recycles the lowest handle first — allocation order after a
  // collection is a deterministic function of the live set).
  std::size_t reclaimed = 0;
  for (node_handle h = 2; h < slot_count_; ++h) {
    if (is_live(h) && !is_marked(h)) {
      clear_live(h);
      free_.push_back(h);
      ++reclaimed;
    }
  }
  live_count_ -= reclaimed;
  std::sort(free_.begin(), free_.end(), std::greater<node_handle>());

  // Rebuild the unique table over the survivors. Capacity tracks the live
  // set (load <= 1/2 after a sweep) so a large transient build does not pin
  // a huge empty table.
  std::size_t capacity = initial_table_capacity;
  while (capacity < (live_count_ + 1) * 2) capacity *= 2;
  table_.assign(capacity, false_handle);
  table_entries_ = 0;
  for (node_handle h = 2; h < slot_count_; ++h)
    if (is_live(h)) insert_unique(h);

  // Scrub memo structures that mention swept handles. Computed-table
  // entries are dropped entry-wise (surviving entries stay warm).
  for (ite_entry& e : ite_cache_) {
    if (e.f == false_handle) continue;
    if (!is_marked(e.f) || !is_marked(e.g) || !is_marked(e.h) ||
        !is_marked(e.result))
      e = ite_entry{};
  }
  sat_cache_.clear();

  ++stats_.gc_runs;
  stats_.gc_reclaimed += reclaimed;
  account_memory();
  return {live_count_, reclaimed};
}

// --- boolean operations ---------------------------------------------------

node_handle manager::apply_not(node_handle f) {
  return ite(f, false_handle, true_handle);
}

node_handle manager::apply_and(node_handle f, node_handle g) {
  return ite(f, g, false_handle);
}

node_handle manager::apply_or(node_handle f, node_handle g) {
  return ite(f, true_handle, g);
}

node_handle manager::apply_xor(node_handle f, node_handle g) {
  return ite(f, apply_not(g), g);
}

node_handle manager::apply_xnor(node_handle f, node_handle g) {
  return ite(f, g, apply_not(g));
}

node_handle manager::restrict_rec(node_handle f, int index, bool value) {
  if (is_terminal(f)) return f;
  const std::int32_t v = var_of(f);
  if (v > index) return f;  // variable below the tested level
  if (v == index) return value ? high_of(f) : low_of(f);
  if (const auto it = restrict_memo_.find(f); it != restrict_memo_.end()) {
    ++stats_.restrict_cache_hits;
    return it->second;
  }
  const node_handle low = restrict_rec(low_of(f), index, value);
  const node_handle high = restrict_rec(high_of(f), index, value);
  const node_handle result = make_node(v, low, high);
  restrict_memo_.emplace(f, result);
  return result;
}

node_handle manager::restrict_var(node_handle f, int index, bool value) {
  // Memoized per call: without the memo every node is revisited once per
  // root-to-node path, which is exponential on DAG-shaped BDDs.
  ++stats_.restrict_calls;
  restrict_memo_.clear();
  return restrict_rec(f, index, value);
}

node_handle manager::exists(node_handle f, int index) {
  const node_handle low = restrict_var(f, index, false);
  const node_handle high = restrict_var(f, index, true);
  return apply_or(low, high);
}

node_handle manager::forall(node_handle f, int index) {
  const node_handle low = restrict_var(f, index, false);
  const node_handle high = restrict_var(f, index, true);
  return apply_and(low, high);
}

bool manager::evaluate(node_handle f,
                       const std::vector<bool>& assignment) const {
  check(assignment.size() >= static_cast<std::size_t>(variable_count_),
        "bdd: assignment too short");
  check(f < slot_count_ && is_live(f), "bdd: dangling node handle");
  node_handle u = f;
  while (!is_terminal(u)) {
    u = assignment[static_cast<std::size_t>(var_of(u))] ? high_of(u)
                                                        : low_of(u);
  }
  return u == true_handle;
}

double manager::sat_count(node_handle f) const {
  // sat_cache_ stores the satisfying *fraction* of each node viewed as a
  // function of all variable_count() variables: fraction(u) =
  // (fraction(low) + fraction(high)) / 2. Variables skipped between a node
  // and its child are free on both branches, so the global fraction of the
  // child needs no level-gap correction.
  if (f == false_handle) return 0.0;
  check(f < slot_count_ && is_live(f), "bdd: dangling node handle");

  // Iterative DFS with memoization on handles.
  std::vector<node_handle> stack{f};
  while (!stack.empty()) {
    const node_handle u = stack.back();
    if (is_terminal(u) || sat_cache_.contains(u)) {
      stack.pop_back();
      continue;
    }
    const node_handle ul = low_of(u);
    const node_handle uh = high_of(u);
    const bool low_ready = is_terminal(ul) || sat_cache_.contains(ul);
    const bool high_ready = is_terminal(uh) || sat_cache_.contains(uh);
    if (!low_ready) {
      stack.push_back(ul);
      continue;
    }
    if (!high_ready) {
      stack.push_back(uh);
      continue;
    }
    auto fraction = [&](node_handle child) {
      if (child == false_handle) return 0.0;
      if (child == true_handle) return 1.0;
      return sat_cache_.at(child);
    };
    const double value = 0.5 * (fraction(ul) + fraction(uh));
    sat_cache_.emplace(u, value);
    stack.pop_back();
  }

  const double fraction = f == true_handle ? 1.0 : sat_cache_.at(f);
  return fraction * std::pow(2.0, variable_count_);
}

}  // namespace compact::bdd
