#include "util/memtrack.hpp"

#include <algorithm>
#include <mutex>

#include "util/metrics.hpp"

namespace compact {
namespace {

std::atomic<bool> g_memtrack_enabled{false};
std::atomic<std::uint64_t> g_process_live{0};
std::atomic<std::uint64_t> g_process_peak{0};

void raise_peak(std::atomic<std::uint64_t>& peak, std::uint64_t candidate) {
  std::uint64_t seen = peak.load(std::memory_order_relaxed);
  while (seen < candidate &&
         !peak.compare_exchange_weak(seen, candidate,
                                     std::memory_order_relaxed)) {
  }
}

struct account_store {
  std::mutex mutex;
  // Leak-on-purpose lifetime, like the metrics registry: handles must
  // survive resets and process teardown ordering.
  std::vector<std::pair<std::string, mem_account*>> accounts;
};

account_store& store() {
  static account_store* s = new account_store;
  return *s;
}

}  // namespace

void set_memtrack_enabled(bool enabled) {
  g_memtrack_enabled.store(enabled, std::memory_order_relaxed);
}

bool memtrack_enabled() {
  return g_memtrack_enabled.load(std::memory_order_relaxed);
}

void mem_account::add(std::uint64_t bytes) {
  if (bytes == 0) return;
  const std::uint64_t live =
      live_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  raise_peak(peak_, live);
  const std::uint64_t process =
      g_process_live.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  raise_peak(g_process_peak, process);
}

void mem_account::sub(std::uint64_t bytes) {
  if (bytes == 0) return;
  live_.fetch_sub(bytes, std::memory_order_relaxed);
  g_process_live.fetch_sub(bytes, std::memory_order_relaxed);
}

void mem_account::reset() {
  const std::uint64_t live = live_.exchange(0, std::memory_order_relaxed);
  g_process_live.fetch_sub(live, std::memory_order_relaxed);
  peak_.store(0, std::memory_order_relaxed);
}

mem_account& memtrack_account(const std::string& name) {
  account_store& s = store();
  const std::lock_guard<std::mutex> lock(s.mutex);
  for (auto& [existing_name, account] : s.accounts)
    if (existing_name == name) return *account;
  auto* fresh = new mem_account(name);
  s.accounts.emplace_back(name, fresh);
  return *fresh;
}

std::vector<const mem_account*> memtrack_accounts() {
  std::vector<std::pair<std::string, mem_account*>> accounts;
  {
    account_store& s = store();
    const std::lock_guard<std::mutex> lock(s.mutex);
    accounts = s.accounts;
  }
  std::sort(accounts.begin(), accounts.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<const mem_account*> out;
  out.reserve(accounts.size());
  for (const auto& [name, account] : accounts) out.push_back(account);
  return out;
}

std::uint64_t memtrack_process_live() {
  return g_process_live.load(std::memory_order_relaxed);
}

std::uint64_t memtrack_process_peak() {
  return g_process_peak.load(std::memory_order_relaxed);
}

void memtrack_reset() {
  std::vector<std::pair<std::string, mem_account*>> accounts;
  {
    account_store& s = store();
    const std::lock_guard<std::mutex> lock(s.mutex);
    accounts = s.accounts;
  }
  for (const auto& [name, account] : accounts) {
    (void)name;
    account->reset();
  }
  g_process_live.store(0, std::memory_order_relaxed);
  g_process_peak.store(0, std::memory_order_relaxed);
}

void publish_memtrack_metrics() {
  if (!memtrack_enabled() || !metrics_enabled()) return;
  metrics_registry& registry = global_metrics();
  {
    // The store's lock covers the accounts' lazily resolved gauges; the
    // registry never calls back into memtrack, so the nesting is safe.
    account_store& s = store();
    const std::lock_guard<std::mutex> lock(s.mutex);
    for (const auto& [name, account] : s.accounts) {
      if (account->bytes_gauge_ == nullptr) {
        account->bytes_gauge_ = &registry.gauge("mem." + name + ".bytes");
        account->peak_gauge_ = &registry.gauge("mem." + name + ".peak_bytes");
      }
      account->bytes_gauge_->set(static_cast<double>(account->live()));
      account->peak_gauge_->set(static_cast<double>(account->peak()));
    }
  }
  static metric_gauge& process_bytes = registry.gauge("mem.process.bytes");
  static metric_gauge& process_peak = registry.gauge("mem.process.peak_bytes");
  process_bytes.set(static_cast<double>(memtrack_process_live()));
  process_peak.set(static_cast<double>(memtrack_process_peak()));
}

}  // namespace compact
