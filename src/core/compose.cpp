#include "core/compose.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace compact::core {

xbar::crossbar compose_diagonal(
    const std::vector<const xbar::crossbar*>& blocks) {
  int total_rows = 1;  // the shared input row
  int total_columns = 0;
  std::vector<int> row_offsets(blocks.size(), 0);
  std::vector<int> column_offsets(blocks.size(), 0);
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const xbar::crossbar* block = blocks[b];
    check(block != nullptr && block->input_row() >= 0,
          "compose_diagonal: block without input row");
    row_offsets[b] = total_rows - 1;
    column_offsets[b] = total_columns;
    if (block->columns() == 0) continue;
    total_rows += block->rows() - 1;
    total_columns += block->columns();
  }

  xbar::crossbar composed(total_rows, total_columns);
  const int shared_input = total_rows - 1;
  composed.set_input_row(shared_input);

  // Devices and ports, block by block. The ports name the composed
  // design's outputs, so their order is the blocks' order.
  std::vector<xbar::placed_device> devices;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const xbar::crossbar* block = blocks[b];
    if (block->columns() != 0) {
      const auto remap_row = [&](int r) {
        if (r == block->input_row()) return shared_input;
        return row_offsets[b] + r - (r > block->input_row() ? 1 : 0);
      };
      for (const xbar::placed_device& p : block->devices())
        devices.push_back(
            {remap_row(p.row), column_offsets[b] + p.column, p.literal});
      for (const xbar::output_port& o : block->outputs())
        composed.add_output(remap_row(o.row), o.name);
    }
    for (const auto& [name, value] : block->constant_outputs())
      composed.add_constant_output(value, name);
  }
  return xbar::crossbar(composed, std::move(devices));
}

}  // namespace compact::core
