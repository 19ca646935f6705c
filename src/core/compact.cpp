#include "core/compact.hpp"

#include <utility>

#include "core/pipeline.hpp"
#include "frontend/to_bdd.hpp"
#include "util/watchdog.hpp"

namespace compact::core {
namespace {

/// Move a finished run's products out of its context.
synthesis_result take_result(synthesis_context& ctx) {
  synthesis_result result;
  if (ctx.partitioned)
    result.partitioned = std::move(ctx.partitioned);
  else if (ctx.composed)
    result.design = std::move(*ctx.composed);
  else
    result.design = std::move(ctx.mapped->design);
  result.labels = std::move(ctx.labels);
  result.stats = std::move(ctx.stats);
  return result;
}

}  // namespace

double synthesis_stats::stage_time(const std::string& stage) const {
  for (const stage_timing& t : stage_seconds)
    if (t.stage == stage) return t.seconds;
  return 0.0;
}

synthesis_result synthesize(const frontend::network& net,
                            const synthesis_options& options) {
  // Install the watchdog before the SBDD build: that is where a runaway
  // netlist allocates, long before the first pipeline stage boundary.
  const resource_limit_scope watchdog(
      {options.memory_limit_bytes, options.deadline_seconds});
  synthesis_context ctx;
  ctx.network = &net;
  ctx.options = options;
  // The separate-ROBDD shape builds one ROBDD per output instead.
  bdd::manager m(net.input_count());
  frontend::sbdd built;
  if (!options.separate_robdds) {
    built = frontend::build_sbdd(net, m);
    ctx.manager = &m;
    ctx.gc_manager = &m;
    ctx.roots = &built.roots;
    ctx.names = &built.names;
  }
  synthesize(ctx);
  return take_result(ctx);
}

synthesis_result synthesize(const bdd::manager& m,
                            const std::vector<bdd::node_handle>& roots,
                            const std::vector<std::string>& names,
                            const synthesis_options& options) {
  synthesis_context ctx;
  ctx.manager = &m;
  ctx.roots = &roots;
  ctx.names = &names;
  ctx.options = options;
  synthesize(ctx);
  return take_result(ctx);
}

}  // namespace compact::core
