#include <gtest/gtest.h>

#include "core/compact.hpp"
#include "frontend/benchgen.hpp"
#include "magic/contra.hpp"

namespace compact::magic {
namespace {

TEST(ContraTest, CostsArePositiveAndConsistent) {
  const contra_result r = contra_synthesize(frontend::make_ripple_adder(4));
  EXPECT_GT(r.luts, 0);
  EXPECT_GT(r.lut_levels, 0);
  EXPECT_EQ(r.total_ops, r.input_ops + r.copy_ops + r.nor_ops);
  EXPECT_GT(r.delay_steps, 0);
  EXPECT_EQ(r.input_ops, 9);  // 4 + 4 + cin
}

TEST(ContraTest, MoreLogicCostsMore) {
  const contra_result small = contra_synthesize(frontend::make_ripple_adder(2));
  const contra_result large = contra_synthesize(frontend::make_ripple_adder(8));
  EXPECT_GT(large.total_ops, small.total_ops);
  EXPECT_GT(large.delay_steps, small.delay_steps);
}

TEST(ContraTest, DeeperCircuitsHaveMoreLevels) {
  // A ripple adder's carry chain forces depth; a decoder is flat.
  const contra_result adder = contra_synthesize(frontend::make_ripple_adder(8));
  const contra_result decoder = contra_synthesize(frontend::make_decoder(4));
  EXPECT_GT(adder.lut_levels, decoder.lut_levels);
}

TEST(ContraTest, ScheduleSlotsLimitParallelism) {
  // With a tiny crossbar only one LUT strip fits: delay grows.
  const frontend::network net = frontend::make_decoder(4);
  contra_options wide;
  contra_options narrow;
  narrow.crossbar_rows = 10;  // one slot with k=4, spacing=6
  const contra_result w = contra_synthesize(net, wide);
  const contra_result n = contra_synthesize(net, narrow);
  EXPECT_GE(n.parallel_delay_steps, w.parallel_delay_steps);
  EXPECT_EQ(n.total_ops, w.total_ops);  // power model is size-independent
}

TEST(ContraTest, PaperDelayModelCountsEveryWrite) {
  const contra_result r = contra_synthesize(frontend::make_decoder(4));
  EXPECT_EQ(r.delay_steps, r.total_ops);
  // The optimistic schedule can only be faster.
  EXPECT_LE(r.parallel_delay_steps, r.delay_steps);
  EXPECT_GT(r.parallel_delay_steps, 0);
}

TEST(ContraTest, CompactBeatsContraOnControlLogicOnAverage) {
  // The paper's Fig. 13 claim, in miniature: flow-based evaluation needs
  // fewer steps than MAGIC's sequential NOR program *on average* over
  // control logic (a flat decoder can individually favor MAGIC).
  core::synthesis_options oct;
  oct.labeler = "oct";
  double flow_total = 0.0;
  double magic_total = 0.0;
  for (const auto& net :
       {frontend::make_decoder(4), frontend::make_priority_encoder(8),
        frontend::make_i2c_like(8), frontend::make_ctrl(6, 16)}) {
    const core::synthesis_result flow = core::synthesize(net, oct);
    const contra_result magic = contra_synthesize(net);
    flow_total += flow.stats.delay_steps;
    magic_total += static_cast<double>(magic.delay_steps);
  }
  EXPECT_LT(flow_total, magic_total);
}

}  // namespace
}  // namespace compact::magic
