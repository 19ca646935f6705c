#include "xbar/faults.hpp"

#include "xbar/evaluate.hpp"

namespace compact::xbar {
namespace {

/// Sampled input vectors, deterministic per seed.
std::vector<std::vector<bool>> sample_vectors(int variable_count, int count,
                                              std::uint64_t seed) {
  rng random(seed);
  std::vector<std::vector<bool>> vectors;
  if (variable_count <= 6 && (1 << variable_count) <= count) {
    for (std::uint64_t bits = 0; bits < (1ULL << variable_count); ++bits) {
      std::vector<bool> a(static_cast<std::size_t>(variable_count));
      for (int v = 0; v < variable_count; ++v)
        a[static_cast<std::size_t>(v)] = (bits >> v) & 1;
      vectors.push_back(std::move(a));
    }
    return vectors;
  }
  for (int i = 0; i < count; ++i) {
    std::vector<bool> a(static_cast<std::size_t>(variable_count));
    for (int v = 0; v < variable_count; ++v)
      a[static_cast<std::size_t>(v)] = random.next_bool();
    vectors.push_back(std::move(a));
  }
  return vectors;
}

bool matches_on(const crossbar& faulty, const crossbar& reference,
                const std::vector<std::vector<bool>>& vectors) {
  for (const std::vector<bool>& a : vectors)
    if (evaluate(faulty, a) != evaluate(reference, a)) return false;
  return true;
}

}  // namespace

crossbar inject_faults(const crossbar& design,
                       const std::vector<fault>& faults) {
  std::vector<placed_device> devices = design.devices();
  for (const fault& f : faults)  // range-checked by the bulk constructor
    devices.push_back({f.row, f.column,
                       {f.kind == fault_kind::stuck_on ? literal_kind::on
                                                       : literal_kind::off,
                        -1}});
  return crossbar(design, std::move(devices));
}

yield_report estimate_yield(const crossbar& design, int variable_count,
                            const yield_options& options) {
  check(options.trials > 0 && options.fault_rate >= 0.0 &&
            options.fault_rate <= 1.0,
        "estimate_yield: bad options");
  const std::vector<std::vector<bool>> vectors =
      sample_vectors(variable_count, options.vectors, options.seed);
  const rng base(options.seed ^ 0xfaf7ULL);

  yield_report report;
  report.trials = options.trials;
  // Each trial draws its fault pattern from substream(trial), so the
  // per-trial outcomes — and therefore the report — do not depend on the
  // thread count or schedule. Per-trial slots avoid vector<bool> packing,
  // which is not safe to write concurrently.
  const auto trial_count = static_cast<std::size_t>(options.trials);
  std::vector<unsigned char> functional(trial_count, 0);
  std::vector<long long> fault_counts(trial_count, 0);
  parallel_for(options.parallel, trial_count, [&](std::size_t trial) {
    rng random = base.substream(trial);
    std::vector<fault> faults;
    for (int r = 0; r < design.rows(); ++r)
      for (int c = 0; c < design.columns(); ++c)
        if (random.next_double() < options.fault_rate)
          faults.push_back(
              {r, c,
               random.next_double() < options.stuck_on_share
                   ? fault_kind::stuck_on
                   : fault_kind::stuck_off});
    fault_counts[trial] = static_cast<long long>(faults.size());
    const crossbar faulty = inject_faults(design, faults);
    functional[trial] = matches_on(faulty, design, vectors) ? 1 : 0;
  });
  long long total_faults = 0;
  for (std::size_t trial = 0; trial < trial_count; ++trial) {
    total_faults += fault_counts[trial];
    if (functional[trial] != 0) ++report.functional;
  }
  report.yield =
      static_cast<double>(report.functional) / static_cast<double>(report.trials);
  report.average_faults =
      static_cast<double>(total_faults) / static_cast<double>(report.trials);
  return report;
}

std::vector<fault> critical_single_faults(const crossbar& design,
                                          int variable_count, int vectors,
                                          std::uint64_t seed) {
  const std::vector<std::vector<bool>> inputs =
      sample_vectors(variable_count, vectors, seed);
  std::vector<fault> critical;
  design.for_each_junction([&](int r, int c, const device& d) {
    for (const fault_kind kind :
         {fault_kind::stuck_off, fault_kind::stuck_on}) {
      // Skip no-op faults (stuck-off on an off junction etc.).
      if (kind == fault_kind::stuck_off && d.kind == literal_kind::off)
        continue;
      if (kind == fault_kind::stuck_on && d.kind == literal_kind::on)
        continue;
      const crossbar faulty = inject_faults(design, {{r, c, kind}});
      if (!matches_on(faulty, design, inputs))
        critical.push_back({r, c, kind});
    }
  });
  return critical;
}

}  // namespace compact::xbar
