#include <gtest/gtest.h>

#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "xbar/crossbar.hpp"
#include "xbar/serialize.hpp"

namespace compact::xbar {
namespace {

TEST(CrossbarTest, ConstructionAndDefaults) {
  crossbar x(3, 4);
  EXPECT_EQ(x.rows(), 3);
  EXPECT_EQ(x.columns(), 4);
  EXPECT_EQ(x.semiperimeter(), 7);
  EXPECT_EQ(x.max_dimension(), 4);
  EXPECT_EQ(x.area(), 12);
  EXPECT_EQ(x.delay_steps(), 4);
  for (int r = 0; r < 3; ++r)
    for (int c = 0; c < 4; ++c)
      EXPECT_EQ(x.at(r, c).kind, literal_kind::off);
}

TEST(CrossbarTest, DeviceProgramming) {
  crossbar x(2, 2);
  x.set_literal(0, 0, 3, true);
  x.set_literal(0, 1, 3, false);
  x.set_on(1, 0);
  EXPECT_EQ(x.at(0, 0).kind, literal_kind::positive);
  EXPECT_EQ(x.at(0, 0).variable, 3);
  EXPECT_EQ(x.at(0, 1).kind, literal_kind::negative);
  EXPECT_EQ(x.at(1, 0).kind, literal_kind::on);
  EXPECT_EQ(x.active_device_count(), 2);  // literals only, not 'on'
}

TEST(CrossbarTest, DeviceConduction) {
  const std::vector<bool> assignment{true, false};
  EXPECT_FALSE((device{literal_kind::off, -1}.conducts(assignment)));
  EXPECT_TRUE((device{literal_kind::on, -1}.conducts(assignment)));
  EXPECT_TRUE((device{literal_kind::positive, 0}.conducts(assignment)));
  EXPECT_FALSE((device{literal_kind::positive, 1}.conducts(assignment)));
  EXPECT_FALSE((device{literal_kind::negative, 0}.conducts(assignment)));
  EXPECT_TRUE((device{literal_kind::negative, 1}.conducts(assignment)));
}

TEST(CrossbarTest, PortBookkeeping) {
  crossbar x(3, 2);
  x.set_input_row(2);
  x.add_output(0, "f");
  x.add_output(1, "g");
  x.add_constant_output(true, "const1");
  EXPECT_EQ(x.input_row(), 2);
  ASSERT_EQ(x.outputs().size(), 2u);
  EXPECT_EQ(x.outputs()[0].name, "f");
  ASSERT_EQ(x.constant_outputs().size(), 1u);
  EXPECT_TRUE(x.constant_outputs()[0].second);
}

TEST(CrossbarTest, BoundsChecking) {
  crossbar x(2, 2);
  EXPECT_THROW((void)x.at(2, 0), error);
  EXPECT_THROW(x.set_on(0, 2), error);
  EXPECT_THROW(x.set_input_row(5), error);
  EXPECT_THROW(x.add_output(-1, "f"), error);
  EXPECT_THROW(x.set(0, 0, {literal_kind::positive, -1}), error);
  EXPECT_THROW(crossbar(0, 2), error);
}

TEST(CrossbarTest, ZeroColumnCrossbarAllowed) {
  crossbar x(1, 0);
  EXPECT_EQ(x.columns(), 0);
  EXPECT_EQ(x.area(), 0);
}

TEST(CrossbarTest, RemapVariablesRewritesLiterals) {
  crossbar x(2, 2);
  x.set_literal(0, 0, 0, true);
  x.set_literal(0, 1, 1, false);
  x.set_on(1, 0);
  const crossbar remapped = remap_variables(x, {2, 0});
  EXPECT_EQ(remapped.at(0, 0).variable, 2);
  EXPECT_EQ(remapped.at(0, 1).variable, 0);
  EXPECT_EQ(remapped.at(1, 0).kind, literal_kind::on);  // untouched
  // Out-of-range mapping rejected.
  EXPECT_THROW((void)remap_variables(x, {0}), error);
}

TEST(CrossbarTest, MaxVariableFollowsThePresentDevices) {
  crossbar x(2, 2);
  EXPECT_EQ(x.max_variable(), -1);
  x.set_literal(0, 0, 7, true);
  x.set_literal(1, 1, 3, false);
  EXPECT_EQ(x.max_variable(), 7);
  x.set_on(0, 0);  // no device reads variable 7 any more
  EXPECT_EQ(x.max_variable(), 3);
  x.set(1, 1, {literal_kind::off, -1});
  EXPECT_EQ(x.max_variable(), -1);
  EXPECT_EQ(x.devices().size(), 1u);
}

bool same(const device& a, const device& b) {
  return a.kind == b.kind && a.variable == b.variable;
}

/// The .xbar text of a rows x columns model, written here independently of
/// xbar::write_design: one `d` line per programmed junction, row-major.
std::string dense_text(int rows, int columns,
                       const std::vector<device>& dense) {
  std::ostringstream text;
  text << "xbar 1\ndim " << rows << ' ' << columns << '\n';
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < columns; ++c) {
      const device& d = dense[static_cast<std::size_t>(r * columns + c)];
      if (d.kind == literal_kind::off) continue;
      text << "d " << r << ' ' << c << ' ';
      if (d.kind == literal_kind::on)
        text << "on";
      else
        text << (d.kind == literal_kind::positive ? '+' : '-') << d.variable;
      text << '\n';
    }
  text << "end\n";
  return text.str();
}

std::string written(const crossbar& x) {
  std::ostringstream os;
  write_design(x, os);
  return os.str();
}

// Random set() sequences (inserts, overwrites, off erasures and
// out-of-range refusals) on random dimensions must agree with a dense
// rows x columns model on every junction, the device list and its row and
// column order, the counts and the written bytes; the bulk constructor must
// agree with the same sequence applied through set().
TEST(CrossbarTest, EditPathMatchesADenseModel) {
  rng random(30);
  for (int trial = 0; trial < 300; ++trial) {
    const int rows = 1 + static_cast<int>(random.next_below(8));
    const int columns = static_cast<int>(random.next_below(8));
    crossbar x(rows, columns);
    std::vector<device> dense(static_cast<std::size_t>(rows * columns));
    std::vector<placed_device> accepted;
    const int steps = static_cast<int>(random.next_below(80));
    for (int step = 0; step < steps; ++step) {
      const int r = static_cast<int>(random.next_below(rows + 2)) - 1;
      const int c = static_cast<int>(random.next_below(columns + 2)) - 1;
      const auto kind = static_cast<literal_kind>(random.next_below(4));
      const device d{kind, kind == literal_kind::positive ||
                                   kind == literal_kind::negative
                               ? static_cast<int>(random.next_below(6))
                               : -1};
      if (r < 0 || r >= rows || c < 0 || c >= columns) {
        EXPECT_THROW(x.set(r, c, d), error);
        continue;
      }
      x.set(r, c, d);
      dense[static_cast<std::size_t>(r * columns + c)] = d;
      accepted.push_back({r, c, d});
    }

    std::vector<placed_device> row_major;
    int active = 0;
    int highest = -1;
    for (int r = 0; r < rows; ++r)
      for (int c = 0; c < columns; ++c) {
        const device& d = dense[static_cast<std::size_t>(r * columns + c)];
        EXPECT_TRUE(same(x.at(r, c), d)) << r << "," << c;
        if (d.kind == literal_kind::off) continue;
        row_major.push_back({r, c, d});
        if (d.kind == literal_kind::on) continue;
        ++active;
        highest = std::max(highest, d.variable);
      }
    ASSERT_EQ(x.devices().size(), row_major.size());
    for (std::size_t i = 0; i < row_major.size(); ++i) {
      EXPECT_EQ(x.devices()[i].row, row_major[i].row);
      EXPECT_EQ(x.devices()[i].column, row_major[i].column);
      EXPECT_TRUE(same(x.devices()[i].literal, row_major[i].literal));
    }
    for (int r = 0; r < rows; ++r) {
      int previous = -1;
      for (const placed_device& p : x.row_devices(r)) {
        EXPECT_EQ(p.row, r);
        EXPECT_GT(p.column, previous);
        previous = p.column;
        EXPECT_TRUE(same(p.literal, x.at(r, p.column)));
      }
    }
    std::size_t by_column = 0;
    for (int c = 0; c < columns; ++c) {
      int previous = -1;
      for (const placed_device& p : x.column_devices(c)) {
        EXPECT_EQ(p.column, c);
        EXPECT_GT(p.row, previous);
        previous = p.row;
        EXPECT_TRUE(same(p.literal, x.at(p.row, c)));
        ++by_column;
      }
    }
    EXPECT_EQ(by_column, row_major.size());
    EXPECT_EQ(x.active_device_count(), active);
    EXPECT_EQ(x.max_variable(), highest);
    EXPECT_EQ(written(x), dense_text(rows, columns, dense));

    const crossbar bulk(crossbar(rows, columns), accepted);
    EXPECT_EQ(written(bulk), written(x));
    EXPECT_EQ(bulk.max_variable(), x.max_variable());
    EXPECT_EQ(bulk.active_device_count(), x.active_device_count());
    // The list a reader hands over, already row-major and without repeats,
    // is taken as it stands.
    const crossbar read(x, row_major);
    EXPECT_EQ(written(read), written(x));
    for (int c = 0; c < columns; ++c) {
      const std::span<const placed_device> got = read.column_devices(c);
      const std::span<const placed_device> want = x.column_devices(c);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i].junction(), want[i].junction());
    }
  }
}

TEST(CrossbarTest, BulkConstructorKeepsPortsAndChecksDevices) {
  crossbar shape(3, 2);
  shape.set_input_row(2);
  shape.add_output(0, "f");
  shape.add_constant_output(true, "t");
  const crossbar x(shape, {{2, 1, {literal_kind::on, -1}},
                           {0, 1, {literal_kind::positive, 4}},
                           {2, 1, {literal_kind::negative, 1}}});
  EXPECT_EQ(x.input_row(), 2);
  ASSERT_EQ(x.outputs().size(), 1u);
  EXPECT_EQ(x.constant_outputs().size(), 1u);
  ASSERT_EQ(x.devices().size(), 2u);
  EXPECT_EQ(x.at(2, 1).kind, literal_kind::negative);  // the later one
  EXPECT_EQ(x.max_variable(), 4);
  EXPECT_THROW(crossbar(shape, {{3, 0, {literal_kind::on, -1}}}), error);
  EXPECT_THROW(crossbar(shape, {{0, 0, {literal_kind::positive, -1}}}),
               error);
}

TEST(CrossbarTest, PrintShowsLiteralsAndPorts) {
  crossbar x(2, 2);
  x.set_literal(0, 0, 0, true);
  x.set_literal(0, 1, 1, false);
  x.set_on(1, 1);
  x.set_input_row(1);
  x.add_output(0, "f");
  std::ostringstream os;
  x.print(os, {"a", "b"});
  const std::string s = os.str();
  EXPECT_NE(s.find("a"), std::string::npos);
  EXPECT_NE(s.find("!b"), std::string::npos);
  EXPECT_NE(s.find("<- input"), std::string::npos);
  EXPECT_NE(s.find("out:f"), std::string::npos);
}

}  // namespace
}  // namespace compact::xbar
