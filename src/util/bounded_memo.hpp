// Bounded-memory memoization: the shared engine behind the labeling and
// partition caches.
//
// Both caches follow the same shape — a 64-bit digest buckets entries, the
// full canonical key string rules out collisions, racing stores of the same
// key keep the first value — and both must now run for days inside
// compact-serve without growing monotonically. bounded_memo centralizes that
// shape and adds exact-LRU eviction driven by the same byte estimate that
// feeds the mem.<account>.bytes gauge: every find() refreshes the entry's
// recency, and store() evicts from the cold end until the estimated content
// size fits the configured capacity. Capacity zero (the default) means
// unbounded, which preserves the historical behavior for CLI one-shots.
//
// Eviction is observation-only by construction: a memo holds results of
// deterministic computations, so evicting an entry can only turn a future
// hit into a recompute of the identical value. Designs are byte-identical
// with eviction on or off (tests/cache_eviction_test.cpp pins this).
//
// Thread-safety: one annotated_mutex guards all state; safe to share across
// pool workers and across concurrent compact-serve requests.
#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/memtrack.hpp"
#include "util/metrics.hpp"
#include "util/thread_annotations.hpp"

namespace compact {

template <typename Payload>
class bounded_memo {
 public:
  /// `metric_prefix` names the metrics family ("label_cache" publishes
  /// label_cache.hits/misses/entries/evictions); `account_name` names the
  /// memtrack account charged with the estimated content bytes.
  bounded_memo(std::string metric_prefix, const std::string& account_name)
      : metric_prefix_(std::move(metric_prefix)),
        account_(memtrack_account(account_name)) {}

  ~bounded_memo() {
    // Drain the charge regardless of the current enabled flag. The lock is
    // formally redundant in a destructor but keeps the guarded-field access
    // visible to the thread-safety analysis.
    const mutex_lock lock(mutex_);
    if (bytes_accounted_ != 0) account_.sub(bytes_accounted_);
  }

  bounded_memo(const bounded_memo&) = delete;
  bounded_memo& operator=(const bounded_memo&) = delete;

  /// Returns the payload stored under (digest, canonical), or nullopt.
  /// Counts a hit or miss; a hit moves the entry to the hot end of the LRU.
  [[nodiscard]] std::optional<Payload> find(std::uint64_t digest,
                                            const std::string& canonical) const {
    const mutex_lock lock(mutex_);
    const auto it = buckets_.find(digest);
    if (it != buckets_.end())
      for (entry& e : it->second)
        if (e.canonical == canonical) {
          lru_.splice(lru_.end(), lru_, e.lru);
          ++counters_.hits;
          if (metrics_enabled()) counter(hits_metric_, ".hits").increment();
          return e.payload;
        }
    ++counters_.misses;
    if (metrics_enabled()) counter(misses_metric_, ".misses").increment();
    return std::nullopt;
  }

  /// Store `payload` under (digest, canonical). Racing stores of the same
  /// key keep the first value; memoized computations are deterministic, so
  /// racing values are identical. `payload_bytes` is the estimated heap
  /// footprint of the payload alone — the memo adds the canonical string and
  /// fixed per-entry overhead — and drives both the mem.* gauge and the
  /// eviction decision.
  void store(std::uint64_t digest, const std::string& canonical,
             Payload payload, std::uint64_t payload_bytes) {
    const mutex_lock lock(mutex_);
    bucket& slot = buckets_[digest];
    for (const entry& e : slot)
      if (e.canonical == canonical) return;  // first store wins
    const std::uint64_t bytes = payload_bytes + canonical.size() + kOverhead;
    lru_.push_back(locator{digest, slot.size()});
    entry e;
    e.canonical = canonical;
    e.payload = std::move(payload);
    e.bytes = bytes;
    e.lru = std::prev(lru_.end());
    slot.push_back(std::move(e));
    content_bytes_ += bytes;
    ++counters_.entries;
    evict_to_capacity();
    publish();
  }

  struct counters {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::size_t entries = 0;
    std::uint64_t evictions = 0;
    std::uint64_t content_bytes = 0;
  };
  [[nodiscard]] counters stats() const {
    const mutex_lock lock(mutex_);
    counters out = counters_;
    out.content_bytes = content_bytes_;
    return out;
  }

  /// Cap the estimated content bytes. 0 = unbounded (the default). Lowering
  /// the cap below the current content evicts immediately, coldest first.
  void set_capacity_bytes(std::uint64_t capacity) {
    const mutex_lock lock(mutex_);
    capacity_bytes_ = capacity;
    evict_to_capacity();
    publish();
  }

  [[nodiscard]] std::uint64_t capacity_bytes() const {
    const mutex_lock lock(mutex_);
    return capacity_bytes_;
  }

  /// Drop every entry (hit/miss/eviction counters reset too — clear() is the
  /// "start a fresh experiment" operation the harnesses rely on).
  void clear() {
    const mutex_lock lock(mutex_);
    buckets_.clear();
    lru_.clear();
    counters_ = {};
    content_bytes_ = 0;
    publish();
  }

 private:
  /// Where one entry lives: its digest bucket and its index within it.
  /// Entries move within a bucket only via swap-remove during eviction,
  /// which patches the moved entry's locator through its lru iterator.
  struct locator {
    std::uint64_t digest = 0;
    std::size_t index = 0;
  };
  struct entry {
    std::string canonical;
    Payload payload{};
    std::uint64_t bytes = 0;
    typename std::list<locator>::iterator lru;
  };
  using bucket = std::vector<entry>;

  // Fixed per-entry bookkeeping estimate: bucket slot, LRU node, hash-map
  // node. Matches the historical "+ 48" constant closely enough that the
  // mem.* gauges stay comparable across PRs.
  static constexpr std::uint64_t kOverhead = 48;

  void evict_to_capacity() COMPACT_REQUIRES(mutex_) {
    if (capacity_bytes_ == 0) return;
    while (content_bytes_ > capacity_bytes_ && !lru_.empty()) {
      const locator cold = lru_.front();
      bucket& slot = buckets_[cold.digest];
      entry& victim = slot[cold.index];
      content_bytes_ -= victim.bytes;
      if (cold.index + 1 != slot.size()) {
        slot[cold.index] = std::move(slot.back());
        slot[cold.index].lru->index = cold.index;
      }
      slot.pop_back();
      if (slot.empty()) buckets_.erase(cold.digest);
      lru_.pop_front();
      --counters_.entries;
      ++counters_.evictions;
      if (metrics_enabled())
        counter(evictions_metric_, ".evictions").increment();
    }
  }

  void publish() COMPACT_REQUIRES(mutex_) {
    account_set(account_, bytes_accounted_, content_bytes_);
    if (metrics_enabled()) {
      if (entries_metric_ == nullptr)
        entries_metric_ = &global_metrics().gauge(metric_prefix_ + ".entries");
      entries_metric_->set(static_cast<double>(counters_.entries));
    }
  }

  /// The prefixed counter `slot` holds, looked up at its first use.
  metric_counter& counter(metric_counter*& slot, const char* suffix) const
      COMPACT_REQUIRES(mutex_) {
    if (slot == nullptr)
      slot = &global_metrics().counter(metric_prefix_ + suffix);
    return *slot;
  }

  const std::string metric_prefix_;
  mem_account& account_;
  mutable annotated_mutex mutex_;
  mutable counters counters_ COMPACT_GUARDED_BY(mutex_);
  mutable std::unordered_map<std::uint64_t, bucket> buckets_
      COMPACT_GUARDED_BY(mutex_);
  /// Recency order, front = coldest. Mutable: find() refreshes recency.
  mutable std::list<locator> lru_ COMPACT_GUARDED_BY(mutex_);
  std::uint64_t content_bytes_ COMPACT_GUARDED_BY(mutex_) = 0;
  std::uint64_t bytes_accounted_ COMPACT_GUARDED_BY(mutex_) = 0;
  std::uint64_t capacity_bytes_ COMPACT_GUARDED_BY(mutex_) = 0;
  // Registry handles of the prefixed metrics, resolved at first publication
  // so a memo whose metrics stay off registers nothing.
  mutable metric_counter* hits_metric_ COMPACT_GUARDED_BY(mutex_) = nullptr;
  mutable metric_counter* misses_metric_ COMPACT_GUARDED_BY(mutex_) = nullptr;
  mutable metric_counter* evictions_metric_ COMPACT_GUARDED_BY(mutex_) =
      nullptr;
  metric_gauge* entries_metric_ COMPACT_GUARDED_BY(mutex_) = nullptr;
};

}  // namespace compact
