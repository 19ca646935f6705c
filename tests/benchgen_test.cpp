#include <gtest/gtest.h>

#include <sstream>

#include "frontend/benchgen.hpp"
#include "frontend/blif.hpp"
#include "util/rng.hpp"

namespace compact::frontend {
namespace {

std::vector<bool> bits(std::uint64_t v, int n) {
  std::vector<bool> out(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) out[static_cast<std::size_t>(i)] = (v >> i) & 1;
  return out;
}

std::uint64_t pack(const std::vector<bool>& v, int from, int count) {
  std::uint64_t out = 0;
  for (int i = 0; i < count; ++i)
    if (v[static_cast<std::size_t>(from + i)]) out |= 1ULL << i;
  return out;
}

/// Arithmetic generators declare operand bits interleaved (a0 b0 a1 b1 ...).
std::vector<bool> interleave(std::uint64_t a, std::uint64_t b, int bits) {
  std::vector<bool> out;
  for (int i = 0; i < bits; ++i) {
    out.push_back((a >> i) & 1);
    out.push_back((b >> i) & 1);
  }
  return out;
}

TEST(BenchgenTest, DecoderIsOneHot) {
  const network net = make_decoder(4);
  EXPECT_EQ(net.input_count(), 4);
  EXPECT_EQ(net.outputs().size(), 16u);
  for (std::uint64_t v = 0; v < 16; ++v) {
    const std::vector<bool> out = net.simulate(bits(v, 4));
    for (std::uint64_t line = 0; line < 16; ++line)
      EXPECT_EQ(out[static_cast<std::size_t>(line)], line == v);
  }
}

TEST(BenchgenTest, PriorityEncoderReportsLowestActive) {
  const network net = make_priority_encoder(8);
  // Outputs: idx0..idx2, valid.
  for (std::uint64_t v = 1; v < 256; ++v) {
    const std::vector<bool> out = net.simulate(bits(v, 8));
    int lowest = 0;
    while (!((v >> lowest) & 1)) ++lowest;
    for (int b = 0; b < 3; ++b)
      EXPECT_EQ(out[static_cast<std::size_t>(b)], bool((lowest >> b) & 1))
          << "v=" << v;
    EXPECT_TRUE(out[3]);
  }
  EXPECT_FALSE(net.simulate(bits(0, 8))[3]);  // no request -> invalid
}

TEST(BenchgenTest, ArbiterGrantsExactlyOneActiveRequest) {
  const network net = make_arbiter(4);  // 2 ptr bits, then 4 req lines
  for (std::uint64_t req = 0; req < 16; ++req) {
    for (std::uint64_t ptr = 0; ptr < 4; ++ptr) {
      std::vector<bool> in = bits(ptr, 2);
      const auto rb = bits(req, 4);
      in.insert(in.end(), rb.begin(), rb.end());
      const std::vector<bool> out = net.simulate(in);
      int grants = 0;
      for (int i = 0; i < 4; ++i)
        if (out[static_cast<std::size_t>(i)]) {
          ++grants;
          EXPECT_TRUE((req >> i) & 1) << "grant without request";
        }
      EXPECT_EQ(grants, req == 0 ? 0 : 1) << "req=" << req << " ptr=" << ptr;
      EXPECT_EQ(out[4], req != 0);  // busy
      if (req != 0) {
        // Round-robin: the granted index is the first active at or after ptr.
        int expect = -1;
        for (int step = 0; step < 4; ++step) {
          const int i = static_cast<int>((ptr + step) % 4);
          if ((req >> i) & 1) {
            expect = i;
            break;
          }
        }
        EXPECT_TRUE(out[static_cast<std::size_t>(expect)]);
      }
    }
  }
}

TEST(BenchgenTest, Int2FloatEncodesLeadingOne) {
  const network net = make_int2float(8);  // sign + 8 magnitude bits
  // magnitude 0b00101100 (44): leading one at 5, mantissa bits 4..2 = 011.
  std::vector<bool> in(9, false);
  in[0] = true;  // sign
  const std::uint64_t mag = 0b00101100;
  for (int i = 0; i < 8; ++i) in[static_cast<std::size_t>(1 + i)] = (mag >> i) & 1;
  const std::vector<bool> out = net.simulate(in);
  // Outputs: exp0..2, man3..0? names: exp (3), man (4), fsign.
  const auto exp = pack(out, 0, 3);
  EXPECT_EQ(exp, 5u);
  EXPECT_TRUE(out[7]);  // fsign mirrors sign
}

TEST(BenchgenTest, RouterMatchesXYRouting) {
  const network net = make_router(3);
  rng random(19);
  for (int t = 0; t < 200; ++t) {
    const int cx = static_cast<int>(random.next_below(8));
    const int cy = static_cast<int>(random.next_below(8));
    const int dx = static_cast<int>(random.next_below(8));
    const int dy = static_cast<int>(random.next_below(8));
    std::vector<bool> in;  // interleaved: cx0 dx0 cx1 dx1 ..., cy0 dy0 ...
    for (int b = 0; b < 3; ++b) {
      in.push_back((cx >> b) & 1);
      in.push_back((dx >> b) & 1);
    }
    for (int b = 0; b < 3; ++b) {
      in.push_back((cy >> b) & 1);
      in.push_back((dy >> b) & 1);
    }
    const std::vector<bool> out = net.simulate(in);  // E W N S L
    const bool east = cx < dx;
    const bool west = cx > dx;
    const bool north = cx == dx && cy < dy;
    const bool south = cx == dx && cy > dy;
    const bool local = cx == dx && cy == dy;
    EXPECT_EQ(out[0], east);
    EXPECT_EQ(out[1], west);
    EXPECT_EQ(out[2], north);
    EXPECT_EQ(out[3], south);
    EXPECT_EQ(out[4], local);
  }
}

TEST(BenchgenTest, AdderAddsExhaustively) {
  const network net = make_ripple_adder(4);  // a0 b0 a1 b1 ... cin
  for (std::uint64_t a = 0; a < 16; ++a)
    for (std::uint64_t b = 0; b < 16; ++b)
      for (int cin = 0; cin < 2; ++cin) {
        std::vector<bool> in = interleave(a, b, 4);
        in.push_back(cin);
        const std::vector<bool> out = net.simulate(in);
        const std::uint64_t sum = a + b + static_cast<std::uint64_t>(cin);
        for (int i = 0; i < 4; ++i)
          EXPECT_EQ(out[static_cast<std::size_t>(i)], bool((sum >> i) & 1));
        EXPECT_EQ(out[4], bool(sum >> 4));
      }
}

TEST(BenchgenTest, AluOperations) {
  const network net = make_alu(3);  // op(2), then a0 b0 a1 b1 a2 b2
  for (std::uint64_t a = 0; a < 8; ++a)
    for (std::uint64_t b = 0; b < 8; ++b)
      for (std::uint64_t op = 0; op < 4; ++op) {
        std::vector<bool> in{bool(op & 1), bool(op & 2)};
        const auto ab = interleave(a, b, 3);
        in.insert(in.end(), ab.begin(), ab.end());
        const std::vector<bool> out = net.simulate(in);
        std::uint64_t expect = 0;
        switch (op) {
          case 0: expect = (a + b) & 7; break;
          case 1: expect = a & b; break;
          case 2: expect = a | b; break;
          default: expect = a ^ b; break;
        }
        EXPECT_EQ(pack(out, 0, 3), expect)
            << "a=" << a << " b=" << b << " op=" << op;
      }
}

TEST(BenchgenTest, ParityGroups) {
  const network net = make_parity(8, 2);
  rng random(23);
  for (int t = 0; t < 100; ++t) {
    const std::uint64_t v = random.next_below(256);
    const std::vector<bool> out = net.simulate(bits(v, 8));
    bool p0 = false, p1 = false, all = false;
    for (int i = 0; i < 8; ++i) {
      const bool bit = (v >> i) & 1;
      if (i % 2 == 0) p0 ^= bit; else p1 ^= bit;
      all ^= bit;
    }
    EXPECT_EQ(out[0], p0);
    EXPECT_EQ(out[1], p1);
    EXPECT_EQ(out[2], all);
  }
}

TEST(BenchgenTest, ComparatorExhaustive) {
  const network net = make_comparator(3);
  for (std::uint64_t a = 0; a < 8; ++a)
    for (std::uint64_t b = 0; b < 8; ++b) {
      const std::vector<bool> in = interleave(a, b, 3);
      const std::vector<bool> out = net.simulate(in);  // eq lt gt
      EXPECT_EQ(out[0], a == b);
      EXPECT_EQ(out[1], a < b);
      EXPECT_EQ(out[2], a > b);
    }
}

TEST(BenchgenTest, MuxTreeSelects) {
  const network net = make_mux_tree(2);  // 2 select + 4 data
  for (std::uint64_t s = 0; s < 4; ++s)
    for (std::uint64_t d = 0; d < 16; ++d) {
      std::vector<bool> in = bits(s, 2);
      const auto db = bits(d, 4);
      in.insert(in.end(), db.begin(), db.end());
      EXPECT_EQ(net.simulate(in)[0], bool((d >> s) & 1));
    }
}

TEST(BenchgenTest, MultiplierExhaustive) {
  const network net = make_multiplier(3);
  for (std::uint64_t a = 0; a < 8; ++a)
    for (std::uint64_t b = 0; b < 8; ++b) {
      const std::vector<bool> in = interleave(a, b, 3);
      const std::vector<bool> out = net.simulate(in);
      EXPECT_EQ(pack(out, 0, static_cast<int>(out.size())), a * b)
          << a << "*" << b;
    }
}

TEST(BenchgenTest, GeneratorsAreDeterministic) {
  const network a = make_ctrl(5, 8, 7);
  const network b = make_ctrl(5, 8, 7);
  for (std::uint64_t v = 0; v < 32; ++v)
    EXPECT_EQ(a.simulate(bits(v, 5)), b.simulate(bits(v, 5)));
}

TEST(BenchgenTest, SuiteIsWellFormedAndSerializable) {
  for (const benchmark_spec& spec : benchmark_suite()) {
    EXPECT_FALSE(spec.name.empty());
    EXPECT_GT(spec.net.input_count(), 0) << spec.name;
    EXPECT_FALSE(spec.net.outputs().empty()) << spec.name;
    // Every circuit must survive a BLIF round trip.
    std::ostringstream os;
    write_blif(spec.net, os);
    const network reparsed = parse_blif(os.str());
    EXPECT_EQ(reparsed.input_count(), spec.net.input_count()) << spec.name;
    // Spot-check equivalence on a few random vectors.
    rng random(1);
    for (int t = 0; t < 16; ++t) {
      std::vector<bool> in;
      for (int i = 0; i < spec.net.input_count(); ++i)
        in.push_back(random.next_bool());
      EXPECT_EQ(spec.net.simulate(in), reparsed.simulate(in)) << spec.name;
    }
  }
}

TEST(BenchgenTest, HardSuiteNonEmpty) {
  EXPECT_GE(hard_benchmark_suite().size(), 3u);
}

}  // namespace
}  // namespace compact::frontend
