#include "plan.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <stdexcept>

#include "util/json.hpp"

namespace perfbench {

const workload_config& bench_config::find(const std::string& name) const {
  for (const workload_config& w : workloads)
    if (w.name == name) return w;
  throw std::invalid_argument("unknown workload '" + name + "'");
}

double workload_config::min_budget() const {
  double budget = time_limit;
  for (const double d : deadlines) budget = std::min(budget, d);
  return budget;
}

namespace {

double number_or(const compact::json::value& v, const std::string& key,
                 double fallback) {
  const compact::json::value* x = v.find(key);
  return x != nullptr ? x->as_number() : fallback;
}

std::vector<double> numbers(const compact::json::value& v,
                            const std::string& key) {
  std::vector<double> out;
  if (const compact::json::value* x = v.find(key))
    for (const auto& item : x->as_array()) out.push_back(item->as_number());
  return out;
}

std::pair<int, int> range(const compact::json::value& v, const std::string& key) {
  const std::vector<double> r = numbers(v, key);
  if (r.empty()) return {0, 0};
  if (r.size() != 2 || r[0] > r[1])
    throw std::invalid_argument("'" + key + "' must be [lo, hi]");
  return {static_cast<int>(r[0]), static_cast<int>(r[1])};
}

}  // namespace

bench_config load_config(const std::string& path) {
  const compact::json::value_ptr doc = compact::json::parse_file(path);
  bench_config c;
  if (const compact::json::value* pins = doc->find("guard_pins")) {
    c.guard_priority_variant =
        static_cast<std::uint64_t>(number_or(*pins, "priority64_variant", 1));
    c.guard_i2c_variant =
        static_cast<std::uint64_t>(number_or(*pins, "i2c4_variant", 1));
  }
  for (const auto& [name, wv] : doc->at("workloads").as_object()) {
    const compact::json::value& v = *wv;
    workload_config w;
    w.name = name;
    w.labeler = v.at("labeler").as_string();
    if (const auto* x = v.find("cache_limit")) w.cache_limit = x->as_string();
    w.time_limit = number_or(v, "time_limit_seconds", 60.0);
    w.gammas = numbers(v, "gammas");
    if (w.gammas.empty()) w.gammas = {0.5};
    w.deadlines = numbers(v, "deadlines_seconds");
    w.zipf_exponent = number_or(v, "zipf_exponent", 0.0);
    w.pool = static_cast<int>(number_or(v, "pool", 0));
    w.lint_every = static_cast<int>(number_or(v, "lint_every", 0));
    w.evaluates_per_session =
        static_cast<int>(number_or(v, "evaluates_per_session", 0));
    if (const compact::json::value* x = v.find("lint_families"))
      for (const auto& item : x->as_array()) w.lint_families.push_back(item->as_string());
    w.synth_per_second = number_or(v, "synth_per_second", 10.0);
    w.min_synth = static_cast<int>(number_or(v, "min_synth", 100));
    w.smoke_synth = static_cast<int>(number_or(v, "smoke_synth", 12));
    w.trace_every = std::max(1, static_cast<int>(number_or(v, "trace_every", 1)));
    for (const auto& fv : v.at("families").as_array()) {
      workload_config::family f;
      f.name = fv->at("family").as_string();
      std::tie(f.size_lo, f.size_hi) = range(*fv, "size");
      std::tie(f.size2_lo, f.size2_hi) = range(*fv, "size2");
      f.weight = number_or(*fv, "weight", 1.0);
      f.count = static_cast<int>(number_or(*fv, "count", 0));
      w.families.push_back(f);
    }
    if (w.families.empty())
      throw std::invalid_argument("workload " + name + " has no families");
    c.workloads.push_back(std::move(w));
  }
  return c;
}

int synth_target(const workload_config& w, double seconds, bool smoke) {
  if (smoke) return w.smoke_synth;
  return std::max(w.min_synth,
                  static_cast<int>(std::lround(w.synth_per_second * seconds)));
}

std::string synth_key(const plan_op& op) {
  return std::to_string(op.circuit) + "/" + op.labeler + "/" +
         std::to_string(op.gamma) + "/" + std::to_string(op.deadline);
}

namespace {

std::uint64_t mix_name(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : s) h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  return h;
}

/// Split `total` into integer shares proportional to `weights`, rounding
/// by largest remainder (ties to the lower index).
std::vector<int> apportion(int total, const std::vector<double>& weights) {
  double sum = 0.0;
  for (const double w : weights) sum += w;
  std::vector<int> share;
  std::vector<std::pair<double, int>> remainder;
  int assigned = 0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double exact = sum > 0.0 ? total * weights[i] / sum : 0.0;
    share.push_back(static_cast<int>(std::floor(exact)));
    assigned += share.back();
    remainder.emplace_back(-(exact - std::floor(exact)), static_cast<int>(i));
  }
  std::sort(remainder.begin(), remainder.end());
  for (std::size_t i = 0; assigned < total && i < remainder.size(); ++i, ++assigned)
    ++share[static_cast<std::size_t>(remainder[i].second)];
  return share;
}

/// `count` circuits: fixed-count families first, the rest spread over the
/// other families by weight (largest remainder). Sizes step evenly down through each family's range and
/// circuits are listed round-robin across families, so a run's size mix is
/// the same for every seed and the largest circuits come first; the seed
/// picks each circuit's structure (`variant`), redrawn while it repeats an
/// earlier circuit.
std::vector<circuit> draw_circuits(const workload_config& w, int count,
                                   bool smoke, prng& r) {
  const auto fixed_count = [&](const workload_config::family& f) {
    return smoke ? std::min(f.count, 1) : f.count;
  };
  int fixed = 0;
  std::vector<double> weights;
  for (const auto& f : w.families) {
    fixed += fixed_count(f);
    weights.push_back(f.count > 0 ? 0.0 : f.weight);
  }
  std::vector<int> share = apportion(std::max(0, count - fixed), weights);
  for (std::size_t i = 0; i < w.families.size(); ++i)
    if (w.families[i].count > 0) share[i] = fixed_count(w.families[i]);

  std::vector<circuit> out;
  std::set<std::string> seen;
  const int rounds = *std::max_element(share.begin(), share.end());
  for (int k = 0; k < rounds; ++k)
    for (std::size_t i = 0; i < w.families.size(); ++i) {
      if (k >= share[i]) continue;
      const auto& f = w.families[i];
      // A smoke plan keeps one circuit of a fixed-count family: the smallest.
      const int size = smoke && f.count > 0
                           ? f.size_lo
                           : f.size_hi - k * (f.size_hi - f.size_lo + 1) / share[i];
      const int size2 =
          f.size2_hi > 0 ? f.size2_lo + k % (f.size2_hi - f.size2_lo + 1) : 0;
      circuit c;
      for (int attempt = 0;; ++attempt) {
        c = generate(f.name, size, size2, r.next());
        // Constant outputs are excluded: compact-serve maps them to port
        // wordlines without devices, which its own lint rejects (XBR001).
        if (has_constant_output(c.net)) {
          if (attempt >= 64)
            throw std::invalid_argument(c.label() + ": every variant has a constant output");
          continue;
        }
        // The .model line names the variant; structure is what must differ.
        if (seen.insert(c.blif.substr(c.blif.find('\n'))).second || attempt >= 8)
          break;
      }
      out.push_back(std::move(c));
    }
  return out;
}

template <typename T>
void shuffle(std::vector<T>& v, prng& r) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[r.below(i)]);
}

std::vector<bool> random_assignment(const circuit& c, prng& r) {
  std::vector<bool> a;
  for (std::size_t i = 0; i < c.net.inputs.size(); ++i) a.push_back(r.below(2) == 1);
  return a;
}

}  // namespace

plan make_plan(const workload_config& w, std::uint64_t seed, int synth_target,
               bool smoke) {
  prng r(seed * 0x2545F4914F6CDD1DULL + mix_name(w.name));
  plan p;
  std::vector<plan_op> synths;
  if (w.pool > 0) {
    // A fixed pool, Zipf by rank (list order). The counts per circuit are
    // the Zipf shares rounded (largest remainder), and each circuit's
    // requests are spread evenly over the run from a phase set by its rank
    // (golden-ratio steps); its occurrences cycle through the deadlines,
    // starting at its rank. Every run sends the same (circuit, deadline)
    // sequence, so the LRU label cache hits and misses the same requests;
    // the seed picks the circuits' structure and the evaluate assignments.
    // Where the seed set the order, phases or deadline starts, which large
    // circuits missed (up to half a second each) was chance, and
    // designs_per_s spread by 0.26 to 0.40 between seeds.
    p.circuits = draw_circuits(w, w.pool, smoke, r);
    std::vector<double> weight;
    for (int k = 1; k <= w.pool; ++k)
      weight.push_back(1.0 / std::pow(static_cast<double>(k), w.zipf_exponent));
    const std::vector<int> count = apportion(synth_target, weight);
    std::vector<std::pair<double, plan_op>> arrivals;
    for (int k = 0; k < w.pool; ++k) {
      const int n = count[static_cast<std::size_t>(k)];
      const double phase = std::fmod(0.5 + 0.6180339887498949 * k, 1.0);
      auto d = static_cast<std::size_t>(k);
      for (int j = 0; j < n; ++j) {
        plan_op synth;
        synth.circuit = k;
        synth.labeler = w.labeler;
        synth.gamma = w.gammas[0];
        if (!w.deadlines.empty()) synth.deadline = w.deadlines[d++ % w.deadlines.size()];
        arrivals.emplace_back((j + phase) / n, synth);
      }
    }
    std::stable_sort(arrivals.begin(), arrivals.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    for (auto& [when, synth] : arrivals) synths.push_back(synth);
  } else {
    // Distinct requests: every circuit once per gamma of the sweep, in
    // rounds of one gamma each over all circuits in a seeded order, as
    // when many callers' sweeps share the daemon. Sent circuit by circuit,
    // the requests near a latency quantile came from two to five circuits'
    // sweeps, so a quantile sampled the host at a few moments of the run,
    // and latency_p50_s and latency_p90_s spread twice as much as
    // designs_per_s between runs.
    const int per_circuit = static_cast<int>(w.gammas.size());
    p.circuits = draw_circuits(w, (synth_target + per_circuit - 1) / per_circuit,
                               smoke, r);
    // Fixed-count families alone set the count, whatever the target.
    std::vector<int> order(p.circuits.size());
    for (std::size_t c = 0; c < order.size(); ++c) order[c] = static_cast<int>(c);
    shuffle(order, r);
    for (const double g : w.gammas)
      for (const int c : order) {
        plan_op synth;
        synth.circuit = c;
        synth.labeler = w.labeler;
        synth.gamma = g;
        synths.push_back(synth);
      }
  }
  // Sessions: synthesize, and for every lint_every-th circuit of each
  // family a lint and the evaluates of the returned design. Circuits are
  // counted per family in draw order (largest first), which gives the same
  // family and size mix for every seed. Counting sessions in their seeded
  // order moved lint_p50_s by half between seeds; counting all circuits in
  // draw order aliased with the round-robin over families and linted three
  // families almost alone.
  std::vector<bool> linted(p.circuits.size(), false);
  if (w.lint_every > 0) {
    std::map<std::string, int> seen;
    for (std::size_t c = 0; c < p.circuits.size(); ++c) {
      const std::string& family = p.circuits[c].family;
      const bool listed = w.lint_families.empty() ||
                          std::find(w.lint_families.begin(), w.lint_families.end(),
                                    family) != w.lint_families.end();
      linted[c] = listed && seen[family]++ % w.lint_every == 0;
    }
  }
  for (std::size_t k = 0; k < synths.size(); ++k) {
    session sess;
    sess.ops.push_back(synths[k]);
    if (linted[static_cast<std::size_t>(synths[k].circuit)]) {
      plan_op lint = synths[k];
      lint.kind = op_kind::lint;
      sess.ops.push_back(lint);
      for (int e = 0; e < w.evaluates_per_session; ++e) {
        plan_op ev = synths[k];
        ev.kind = op_kind::evaluate;
        ev.assignment = random_assignment(
            p.circuits[static_cast<std::size_t>(ev.circuit)], r);
        sess.ops.push_back(ev);
      }
    }
    p.sessions.push_back(std::move(sess));
  }
  return p;
}

}  // namespace perfbench
