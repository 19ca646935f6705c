#include "guard.hpp"

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <iostream>
#include <set>

#include "requests.hpp"
#include "serve_client.hpp"
#include "util/json.hpp"

namespace perfbench {
namespace {

struct guarded {
  std::string label;
  compact::api::request_v1 request;
};

struct answer {
  bool ok = false;
  bool optimal = false;
  std::string design;
  double service = 0.0;
};

/// Replay every request at budgets `low` and `high`, serially on one
/// daemon with one worker, alternating which budget goes first, so that
/// warm-up and drift fall on both sides alike. The budget is part of every
/// cache key, so neither side can hit the other's entries.
std::pair<std::vector<answer>, std::vector<answer>> replay(
    const std::vector<guarded>& requests, double low, double high,
    const std::string& serve_bin, const std::string& dir) {
  daemon_process d(serve_bin, {"--socket", "serve.sock", "--threads", "1", "--quiet"},
                   dir, dir + "/serve.sock");
  line_channel ch(d.connect(60.0));
  const auto ask = [&](const guarded& g, double budget) {
    compact::api::request_v1 req = g.request;
    req.synthesis.time_limit_seconds = budget;
    const op_result r = exchange(ch, req);
    answer a;
    a.ok = r.answered && r.response.ok;
    a.optimal = r.response.stats.optimal;
    a.design = r.response.design_text;
    a.service = r.response.service_seconds;
    return a;
  };
  std::vector<answer> at_low(requests.size()), at_high(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (i % 2 == 0) {
      at_low[i] = ask(requests[i], low);
      at_high[i] = ask(requests[i], high);
    } else {
      at_high[i] = ask(requests[i], high);
      at_low[i] = ask(requests[i], low);
    }
  }
  return {std::move(at_low), std::move(at_high)};
}

/// Why `a` and `b` (same request, budgets 4x apart) disagree; "" if not.
std::string disagreement(const answer& a, const answer& b, double bound) {
  if (!a.ok || !b.ok) return "request failed";
  if (a.design != b.design) return "design bytes differ";
  if (a.optimal != b.optimal) return "optimal flag differs";
  // Sub-50 ms requests move by scheduler noise alone; only real moves count.
  const double diff = std::fabs(a.service - b.service);
  if (diff > bound * std::max(a.service, b.service) && diff > 0.05)
    return "latency moved " + std::to_string(a.service) + "s -> " +
           std::to_string(b.service) + "s";
  return {};
}

double latency_bound(const compact::json::value& benchmark) {
  for (const auto& m : benchmark.at("end_to_end").as_array())
    if (m->at("name").as_string() == "latency_p50_s")
      return m->at("bound").as_number();
  throw std::runtime_error("BENCHMARK.json has no latency_p50_s bound");
}

}  // namespace

int run_guard(const bench_config& cfg, const std::string& serve_bin,
              const std::string& run_dir, const std::string& benchmark_json,
              std::uint64_t seed, bool smoke) {
  const compact::json::value_ptr benchmark = compact::json::parse_file(benchmark_json);
  const double bound = latency_bound(*benchmark);
  // The pools a run of run_seconds replays, as workload_run::run sizes them.
  const double run_seconds = benchmark->at("run_seconds").as_number();
  const std::string dir = run_dir + "/guard-" + std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  bool pass = true;

  const auto compare = [&](const std::vector<guarded>& pool, double low) {
    auto [a, b] = replay(pool, low, 4.0 * low, serve_bin, dir);
    // A latency move may be scheduler noise: re-measure those requests
    // twice more at both budgets and keep each side's fastest time.
    std::vector<guarded> again;
    std::vector<std::size_t> where;
    for (std::size_t i = 0; i < pool.size(); ++i)
      if (a[i].ok && b[i].ok && a[i].design == b[i].design &&
          a[i].optimal == b[i].optimal && !disagreement(a[i], b[i], bound).empty()) {
        again.push_back(pool[i]);
        where.push_back(i);
      }
    for (int round = 0; round < 2 && !again.empty(); ++round) {
      const auto [ra, rb] = replay(again, low, 4.0 * low, serve_bin, dir);
      for (std::size_t j = 0; j < again.size(); ++j) {
        a[where[j]].service = std::min(a[where[j]].service, ra[j].service);
        b[where[j]].service = std::min(b[where[j]].service, rb[j].service);
      }
    }
    std::vector<std::string> flagged;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      const std::string why = disagreement(a[i], b[i], bound);
      if (!why.empty()) flagged.push_back(pool[i].label + ": " + why);
    }
    return flagged;
  };

  for (const workload_config& w : cfg.workloads) {
    const plan p = make_plan(w, seed, synth_target(w, run_seconds, smoke), smoke);
    std::vector<guarded> pool;
    std::set<std::string> seen;
    for (const session& s : p.sessions) {
      plan_op op = s.ops[0];
      op.deadline = 0.0;  // the guard varies the budget itself
      if (!seen.insert(synth_key(op)).second) continue;
      pool.push_back({p.circuits[static_cast<std::size_t>(op.circuit)].label() +
                          " " + op.labeler + " gamma " + std::to_string(op.gamma),
                      make_request(p, w, op, "g" + std::to_string(pool.size()), "")});
    }
    // The smallest budget a request of the workload runs with (its time
    // limit, capped by its smallest deadline) against four times that.
    const double low = w.min_budget();
    const std::vector<std::string> flagged = compare(pool, low);
    std::cout << "guard " << w.name << " seed " << seed << ": " << pool.size()
              << " requests at " << low << "s and " << 4.0 * low << "s, "
              << flagged.size() << " clock-dependent\n";
    for (const std::string& f : flagged) std::cout << "  " << f << "\n";
    pass = pass && flagged.empty();
  }

  if (!smoke) {
    // Known offenders at 5 s vs 20 s: the guard must reject each of them.
    workload_config mip;
    mip.time_limit = 5.0;
    plan pins;
    pins.circuits.push_back(generate("priority", 64, 0, cfg.guard_priority_variant));
    pins.circuits.push_back(generate("i2c", 4, 0, cfg.guard_i2c_variant));
    std::vector<guarded> offenders;
    for (int c = 0; c < 2; ++c) {
      plan_op op;
      op.circuit = c;
      op.labeler = "mip";
      op.gamma = 0.5;
      offenders.push_back({pins.circuits[static_cast<std::size_t>(c)].label() + " mip",
                           make_request(pins, mip, op, "pin" + std::to_string(c), "")});
    }
    for (const guarded& g : offenders) {
      const std::vector<std::string> flagged = compare({g}, 5.0);
      std::cout << "guard pin " << g.label << ": "
                << (flagged.empty() ? "NOT rejected" : flagged[0]) << "\n";
      pass = pass && !flagged.empty();
    }
  }
  std::filesystem::remove_all(dir);
  std::cout << "guard " << (pass ? "PASS" : "FAIL") << std::endl;
  return pass ? 0 : 1;
}

}  // namespace perfbench
