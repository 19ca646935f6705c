// Process-wide byte accounting: named memory accounts with relaxed-atomic
// live/peak gauges, published into the metrics registry as mem.<name>.bytes.
//
// The facility exists so the heavyweights (the BDD arena and tables, the
// labeling/partition caches, the MILP tableau and branch-and-bound queue)
// can report how many bytes they hold without a real allocator hook. Each
// owner tracks the bytes it knows it allocated and reconciles them into an
// account via account_set(); temporaries use scoped_mem. Accounting follows
// the util/metrics gating idiom: off by default, one relaxed atomic load on
// the fast path when disabled, and observation only — designs are
// bit-identical with memtrack on or off.
//
// Thread-safety: accounts are internally synchronized (relaxed atomics with
// a CAS-maintained peak) and safe to update from pool workers. Handles from
// memtrack_account() stay valid for the process lifetime.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace compact {

class metric_gauge;

/// Globally enable/disable byte accounting. Off by default.
void set_memtrack_enabled(bool enabled);
[[nodiscard]] bool memtrack_enabled();

/// One named byte account (e.g. "bdd.arena"). Updates also maintain the
/// process-wide live total and peak, so a memory watchdog can compare one
/// number against its limit.
class mem_account {
 public:
  /// Unconditional add/sub (callers gate; prefer account_set below).
  void add(std::uint64_t bytes);
  void sub(std::uint64_t bytes);

  [[nodiscard]] std::uint64_t live() const {
    return live_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t peak() const {
    return peak_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// Drop live to zero (adjusting the process total) and clear the peak.
  void reset();

 private:
  friend mem_account& memtrack_account(const std::string& name);
  friend void publish_memtrack_metrics();
  explicit mem_account(std::string name) : name_(std::move(name)) {}

  std::string name_;
  std::atomic<std::uint64_t> live_{0};
  std::atomic<std::uint64_t> peak_{0};
  // The account's mem.<name>.bytes and .peak_bytes gauges, resolved at its
  // first publication and guarded by the account store's mutex.
  metric_gauge* bytes_gauge_ = nullptr;
  metric_gauge* peak_gauge_ = nullptr;
};

/// Get-or-create an account by dotted name ("bdd.unique_table",
/// "cache.labeling"). Handles remain valid for the process lifetime.
[[nodiscard]] mem_account& memtrack_account(const std::string& name);

/// Every registered account, sorted by name. Pointers are process-lifetime.
[[nodiscard]] std::vector<const mem_account*> memtrack_accounts();

/// Sum of live bytes across all accounts, and its high-water mark.
[[nodiscard]] std::uint64_t memtrack_process_live();
[[nodiscard]] std::uint64_t memtrack_process_peak();

/// Zero every account and the process totals (registrations persist).
void memtrack_reset();

/// Reconcile an owner-tracked byte count with an account. `accounted` is the
/// caller's record of what it previously charged; `now` is what it currently
/// holds. When memtrack is disabled the target is zero, so an owner that
/// keeps calling this after a mid-run disable drains its charge instead of
/// leaving stale bytes behind. Near-zero cost when disabled and drained.
inline void account_set(mem_account& account, std::uint64_t& accounted,
                        std::uint64_t now) {
  const std::uint64_t target = memtrack_enabled() ? now : 0;
  if (target == accounted) return;
  if (target > accounted)
    account.add(target - accounted);
  else
    account.sub(accounted - target);
  accounted = target;
}

/// RAII charge for a temporary allocation (e.g. one LP solve's tableau):
/// charges at construction when memtrack is enabled, releases exactly what
/// it charged at destruction regardless of any mid-scope toggle.
class scoped_mem {
 public:
  scoped_mem(mem_account& account, std::uint64_t bytes)
      : account_(account), charged_(memtrack_enabled() ? bytes : 0) {
    if (charged_ != 0) account_.add(charged_);
  }
  ~scoped_mem() {
    if (charged_ != 0) account_.sub(charged_);
  }
  scoped_mem(const scoped_mem&) = delete;
  scoped_mem& operator=(const scoped_mem&) = delete;

 private:
  mem_account& account_;
  std::uint64_t charged_;
};

/// Owner-tracked charge with RAII drain: set() reconciles like account_set,
/// and destruction releases whatever is still charged (exception-safe, so a
/// throw out of the owning scope cannot leak accounted bytes).
class account_guard {
 public:
  explicit account_guard(mem_account& account) : account_(account) {}
  ~account_guard() {
    if (accounted_ != 0) account_.sub(accounted_);
  }
  void set(std::uint64_t now) { account_set(account_, accounted_, now); }
  account_guard(const account_guard&) = delete;
  account_guard& operator=(const account_guard&) = delete;

 private:
  mem_account& account_;
  std::uint64_t accounted_ = 0;
};

/// Push every account into the global metrics registry as gauges
/// mem.<account>.bytes / mem.<account>.peak_bytes plus mem.process.bytes and
/// mem.process.peak_bytes, so --metrics-json and `stats` pick them up. No-op
/// unless both memtrack and metrics are enabled.
void publish_memtrack_metrics();

}  // namespace compact
