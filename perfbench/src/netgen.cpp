#include "netgen.hpp"

#include <algorithm>
#include <stdexcept>

namespace perfbench {

int netlist::add_input(const std::string& input_name) {
  if (!gates.empty()) throw std::logic_error("inputs must precede gates");
  inputs.push_back(input_name);
  return static_cast<int>(inputs.size()) - 1;
}

int netlist::add(gate_kind kind, std::vector<int> in, std::vector<bool> neg) {
  if (neg.empty()) neg.assign(in.size(), false);
  if (neg.size() != in.size()) throw std::logic_error("neg/in size mismatch");
  gates.push_back({kind, std::move(in), std::move(neg)});
  return static_cast<int>(inputs.size() + gates.size()) - 1;
}

std::string netlist::to_blif() const {
  const auto signal = [&](int s) {
    return s < static_cast<int>(inputs.size())
               ? inputs[static_cast<std::size_t>(s)]
               : "n" + std::to_string(s);
  };
  std::string out = ".model " + name + "\n.inputs";
  for (const std::string& i : inputs) out += " " + i;
  out += "\n.outputs";
  for (const auto& [o, s] : outputs) out += " " + o;
  out += "\n";
  for (std::size_t g = 0; g < gates.size(); ++g) {
    const gate& gt = gates[g];
    out += ".names";
    for (const int s : gt.in) out += " " + signal(s);
    out += " " + signal(static_cast<int>(inputs.size() + g)) + "\n";
    const std::size_t k = gt.in.size();
    switch (gt.kind) {
      case gate_kind::and_: {
        for (std::size_t i = 0; i < k; ++i) out += gt.neg[i] ? '0' : '1';
        out += " 1\n";
        break;
      }
      case gate_kind::or_:
        for (std::size_t i = 0; i < k; ++i) {
          std::string row(k, '-');
          row[i] = gt.neg[i] ? '0' : '1';
          out += row + " 1\n";
        }
        break;
      case gate_kind::xor_:
        out += "10 1\n01 1\n";
        break;
      case gate_kind::mux:
        out += "01- 1\n1-1 1\n";
        break;
      case gate_kind::not_:
        out += "0 1\n";
        break;
    }
  }
  for (const auto& [o, s] : outputs)
    out += ".names " + signal(s) + " " + o + "\n1 1\n";
  out += ".end\n";
  return out;
}

std::vector<std::uint64_t> netlist::evaluate(
    const std::vector<std::uint64_t>& words) const {
  std::vector<std::uint64_t> v(words);
  v.resize(inputs.size() + gates.size());
  for (std::size_t g = 0; g < gates.size(); ++g) {
    const gate& gt = gates[g];
    const auto lit = [&](std::size_t i) {
      const std::uint64_t x = v[static_cast<std::size_t>(gt.in[i])];
      return gt.neg[i] ? ~x : x;
    };
    std::uint64_t r = 0;
    switch (gt.kind) {
      case gate_kind::and_:
        r = ~std::uint64_t{0};
        for (std::size_t i = 0; i < gt.in.size(); ++i) r &= lit(i);
        break;
      case gate_kind::or_:
        for (std::size_t i = 0; i < gt.in.size(); ++i) r |= lit(i);
        break;
      case gate_kind::xor_:
        r = lit(0) ^ lit(1);
        break;
      case gate_kind::mux:
        r = (~lit(0) & lit(1)) | (lit(0) & lit(2));
        break;
      case gate_kind::not_:
        r = ~lit(0);
        break;
    }
    v[inputs.size() + g] = r;
  }
  std::vector<std::uint64_t> out;
  out.reserve(outputs.size());
  for (const auto& [o, s] : outputs) out.push_back(v[static_cast<std::size_t>(s)]);
  return out;
}

bool has_constant_output(const netlist& net) {
  const std::size_t n = net.inputs.size();
  if (n > 16) return false;
  const std::uint64_t total = std::uint64_t{1} << n;
  std::vector<std::uint64_t> seen_one(net.outputs.size(), 0);
  std::vector<std::uint64_t> seen_zero(net.outputs.size(), 0);
  for (std::uint64_t w = 0; w * 64 < total; ++w) {
    std::vector<std::uint64_t> in(n, 0);
    std::uint64_t valid = 0;
    for (int b = 0; b < 64 && w * 64 + static_cast<std::uint64_t>(b) < total; ++b) {
      const std::uint64_t a = w * 64 + static_cast<std::uint64_t>(b);
      valid |= std::uint64_t{1} << b;
      for (std::size_t i = 0; i < n; ++i)
        if ((a >> i) & 1) in[i] |= std::uint64_t{1} << b;
    }
    const std::vector<std::uint64_t> out = net.evaluate(in);
    for (std::size_t o = 0; o < out.size(); ++o) {
      seen_one[o] |= out[o] & valid;
      seen_zero[o] |= ~out[o] & valid;
    }
  }
  for (std::size_t o = 0; o < net.outputs.size(); ++o)
    if (seen_one[o] == 0 || seen_zero[o] == 0) return true;
  return false;
}

std::string circuit::label() const {
  std::string l = family + std::to_string(size);
  if (size2 > 0) l += "x" + std::to_string(size2);
  return l + "#" + std::to_string(variant % 100000);
}

namespace {

std::vector<int> add_inputs(netlist& n, const std::string& prefix, int count) {
  std::vector<int> ids;
  for (int i = 0; i < count; ++i)
    ids.push_back(n.add_input(prefix + std::to_string(i)));
  return ids;
}

int ceil_log2(int v) {
  int bits = 0;
  while ((1 << bits) < v) ++bits;
  return bits;
}

// Address decoder; a seeded subset of outputs is active-low.
netlist decoder(int bits, prng& r) {
  netlist n;
  const std::vector<int> a = add_inputs(n, "a", bits);
  for (int v = 0; v < (1 << bits); ++v) {
    std::vector<bool> neg;
    for (int b = 0; b < bits; ++b) neg.push_back(((v >> b) & 1) == 0);
    int g = n.and_(a, neg);
    if (r.below(4) == 0) g = n.not_(g);
    n.output("d" + std::to_string(v), g);
  }
  return n;
}

// 2^sel : 1 multiplexer; selects are declared first (the good BDD order)
// and a seeded subset of data lines enters inverted.
netlist mux(int sel, prng& r) {
  netlist n;
  const std::vector<int> s = add_inputs(n, "s", sel);
  const std::vector<int> d = add_inputs(n, "d", 1 << sel);
  std::vector<int> layer;
  for (const int x : d) layer.push_back(r.below(3) == 0 ? n.not_(x) : x);
  for (int b = 0; b < sel; ++b) {
    std::vector<int> next;
    for (std::size_t i = 0; i + 1 < layer.size(); i += 2)
      next.push_back(n.mux(s[static_cast<std::size_t>(b)], layer[i], layer[i + 1]));
    layer = next;
  }
  n.output("y", layer[0]);
  return n;
}

// Priority encoder: index of the lowest-numbered active request plus a
// valid flag. The scan direction is fixed: scanning from the last declared
// input instead leaves Method 2 solves that do not close within a minute.
netlist priority(int width) {
  netlist n;
  const std::vector<int> req = add_inputs(n, "r", width);
  std::vector<int> sel;
  int none_before = -1;
  for (int i = 0; i < width; ++i) {
    const int ri = req[static_cast<std::size_t>(i)];
    sel.push_back(none_before < 0 ? ri : n.and_({ri, none_before}));
    none_before = none_before < 0 ? n.not_(ri)
                                  : n.and_({none_before, ri}, {false, true});
  }
  for (int b = 0; b < ceil_log2(width); ++b) {
    std::vector<int> terms;
    for (int i = 0; i < width; ++i)
      if ((i >> b) & 1) terms.push_back(sel[static_cast<std::size_t>(i)]);
    n.output("idx" + std::to_string(b), n.or_(terms));
  }
  n.output("valid", n.or_(req));
  return n;
}

// `groups` odd-parity trees over interleaved input groups; the seed picks
// each tree's output polarity. (Seeded group membership was tried and
// dropped: it moves Method 2 solve times tenfold between seeds.)
netlist parity(int bits, int groups, prng& r) {
  netlist n;
  const std::vector<int> x = add_inputs(n, "x", bits);
  for (int g = 0; g < groups; ++g) {
    int acc = -1;
    for (int i = g; i < bits; i += groups)
      acc = acc < 0 ? x[static_cast<std::size_t>(i)]
                    : n.xor_(acc, x[static_cast<std::size_t>(i)]);
    n.output("p" + std::to_string(g), r.below(2) == 0 ? acc : n.not_(acc));
  }
  return n;
}

// Ripple-carry adder, operands interleaved LSB first after the carry-in.
netlist adder(int bits, prng& r) {
  netlist n;
  const int cin = n.add_input("cin");
  std::vector<int> a, b;
  for (int i = 0; i < bits; ++i) {
    a.push_back(n.add_input("a" + std::to_string(i)));
    b.push_back(n.add_input("b" + std::to_string(i)));
  }
  const bool subtract = r.below(2) == 1;  // seeded: a + b or a + ~b
  int carry = cin;
  for (int i = 0; i < bits; ++i) {
    const int bi = subtract ? n.not_(b[static_cast<std::size_t>(i)])
                            : b[static_cast<std::size_t>(i)];
    const int ai = a[static_cast<std::size_t>(i)];
    const int half = n.xor_(ai, bi);
    n.output("s" + std::to_string(i), n.xor_(half, carry));
    carry = n.or_({n.and_({ai, bi}), n.and_({half, carry})});
  }
  n.output("cout", carry);
  return n;
}

// Unsigned comparator (eq / lt / gt), operands interleaved MSB first.
netlist comparator(int bits, prng& r) {
  netlist n;
  std::vector<int> a, b;
  for (int i = bits - 1; i >= 0; --i) {
    a.push_back(n.add_input("a" + std::to_string(i)));
    b.push_back(n.add_input("b" + std::to_string(i)));
  }
  int eq = -1, lt = -1;
  for (int i = 0; i < bits; ++i) {
    const int ai = a[static_cast<std::size_t>(i)];
    const int bi = b[static_cast<std::size_t>(i)];
    const int bit_lt = n.and_({ai, bi}, {true, false});
    const int bit_eq = n.not_(n.xor_(ai, bi));
    lt = lt < 0 ? bit_lt : n.or_({lt, n.and_({eq, bit_lt})});
    eq = eq < 0 ? bit_eq : n.and_({eq, bit_eq});
  }
  n.output("eq", eq);
  n.output("lt", lt);
  if (r.below(2) == 0) n.output("gt", n.and_({eq, lt}, {true, true}));
  else n.output("ge", n.not_(lt));
  return n;
}

// Round-robin arbiter: grant_i when requester i is the first active one at
// or after the pointer, cyclically, with the pointer value offset by
// `rotate`. The offset is a size knob, not seeded: it moves the OCT solve
// time between milliseconds and seconds.
netlist arbiter(int requesters, int rotate) {
  netlist n;
  const int pbits = ceil_log2(requesters);
  const std::vector<int> ptr = add_inputs(n, "p", pbits);
  const std::vector<int> req = add_inputs(n, "r", requesters);
  for (int i = 0; i < requesters; ++i) {
    std::vector<int> terms;
    for (int v = 0; v < requesters; ++v) {
      std::vector<int> in;
      std::vector<bool> neg;
      for (int b = 0; b < pbits; ++b) {
        in.push_back(ptr[static_cast<std::size_t>(b)]);
        neg.push_back(((((v + rotate) % requesters) >> b) & 1) == 0);
      }
      in.push_back(req[static_cast<std::size_t>(i)]);
      neg.push_back(false);
      for (int k = v; k != i; k = (k + 1) % requesters) {
        in.push_back(req[static_cast<std::size_t>(k)]);
        neg.push_back(true);
      }
      terms.push_back(n.and_(in, neg));
    }
    n.output("g" + std::to_string(i), n.or_(terms));
  }
  n.output("any", n.or_(req));
  return n;
}

// Sign-magnitude integer to a tiny float: leading-one position as the
// exponent, the next `mantissa` bits as the mantissa.
netlist int2float(int bits, prng& r) {
  netlist n;
  const int sign = n.add_input("sign");
  std::vector<int> x;  // x[0] is the most significant bit
  for (int i = bits - 1; i >= 0; --i) x.push_back(n.add_input("x" + std::to_string(i)));
  const int mantissa = 3 + static_cast<int>(r.below(2));
  std::vector<int> lead;
  int none_above = -1;
  for (int i = 0; i < bits; ++i) {
    const int xi = x[static_cast<std::size_t>(i)];
    lead.push_back(none_above < 0 ? xi : n.and_({xi, none_above}));
    none_above = none_above < 0 ? n.not_(xi)
                                : n.and_({none_above, xi}, {false, true});
  }
  n.output("sign_out", sign);
  for (int b = 0; b < ceil_log2(bits + 1); ++b) {
    std::vector<int> terms;
    for (int i = 0; i < bits; ++i)
      if (((bits - i) >> b) & 1) terms.push_back(lead[static_cast<std::size_t>(i)]);
    if (!terms.empty()) n.output("e" + std::to_string(b), n.or_(terms));
  }
  for (int m = 0; m < mantissa; ++m) {
    std::vector<int> terms;
    for (int i = 0; i + 1 + m < bits; ++i)
      terms.push_back(n.and_({lead[static_cast<std::size_t>(i)],
                              x[static_cast<std::size_t>(i + 1 + m)]}));
    if (!terms.empty()) n.output("m" + std::to_string(m), n.or_(terms));
  }
  return n;
}

// Dimension-order mesh routing: compare current and destination
// coordinates; the dimension routed first is seeded.
netlist router(int coord, prng& r) {
  netlist n;
  std::vector<int> cx, dx, cy, dy;
  for (int i = coord - 1; i >= 0; --i) {
    cx.push_back(n.add_input("cx" + std::to_string(i)));
    dx.push_back(n.add_input("dx" + std::to_string(i)));
  }
  for (int i = coord - 1; i >= 0; --i) {
    cy.push_back(n.add_input("cy" + std::to_string(i)));
    dy.push_back(n.add_input("dy" + std::to_string(i)));
  }
  const auto compare = [&](const std::vector<int>& a, const std::vector<int>& b,
                           int& eq, int& lt, int& gt) {
    eq = lt = gt = -1;
    for (std::size_t i = 0; i < a.size(); ++i) {
      const int bit_lt = n.and_({a[i], b[i]}, {true, false});
      const int bit_gt = n.and_({a[i], b[i]}, {false, true});
      const int bit_eq = n.not_(n.xor_(a[i], b[i]));
      lt = lt < 0 ? bit_lt : n.or_({lt, n.and_({eq, bit_lt})});
      gt = gt < 0 ? bit_gt : n.or_({gt, n.and_({eq, bit_gt})});
      eq = eq < 0 ? bit_eq : n.and_({eq, bit_eq});
    }
  };
  int ex, lx, gx, ey, ly, gy;
  compare(cx, dx, ex, lx, gx);
  compare(cy, dy, ey, ly, gy);
  if (r.below(2) == 0) {  // X first
    n.output("east", lx);
    n.output("west", gx);
    n.output("north", n.and_({ex, ly}));
    n.output("south", n.and_({ex, gy}));
  } else {  // Y first
    n.output("north", ly);
    n.output("south", gy);
    n.output("east", n.and_({ey, lx}));
    n.output("west", n.and_({ey, gx}));
  }
  n.output("local", n.and_({ex, ey}));
  return n;
}

// Opcode decoder: each control line ORs a few seeded opcode cubes.
netlist ctrl(int opcode_bits, int lines, prng& r) {
  netlist n;
  const std::vector<int> op = add_inputs(n, "op", opcode_bits);
  for (int l = 0; l < lines; ++l) {
    std::vector<int> terms;
    const int cubes = 2 + static_cast<int>(r.below(3));
    for (int c = 0; c < cubes; ++c) {
      std::vector<int> in;
      std::vector<bool> neg;
      for (int b = 0; b < opcode_bits; ++b) {
        if (r.below(5) == 0) continue;  // don't-care position
        in.push_back(op[static_cast<std::size_t>(b)]);
        neg.push_back(r.below(2) == 0);
      }
      if (in.empty()) {
        in.push_back(op[0]);
        neg.push_back(false);
      }
      terms.push_back(n.and_(in, neg));
    }
    n.output("c" + std::to_string(l), n.or_(terms));
  }
  return n;
}

// Coding-table-like mesh: seeded layers of AND / XOR / MUX gates.
netlist cavlc(int inputs, int outputs, prng& r) {
  netlist n;
  std::vector<int> layer = add_inputs(n, "x", inputs);
  const auto pick = [&](const std::vector<int>& from) {
    return from[r.below(static_cast<std::uint64_t>(from.size()))];
  };
  for (int depth = 0; depth < 2; ++depth) {
    std::vector<int> next;
    for (int i = 0; i < inputs; ++i) {
      switch (r.below(3)) {
        case 0:
          next.push_back(n.and_({pick(layer), pick(layer)},
                                {r.below(2) == 0, r.below(2) == 0}));
          break;
        case 1:
          next.push_back(n.xor_(pick(layer), pick(layer)));
          break;
        default:
          next.push_back(n.mux(pick(layer), pick(layer), pick(layer)));
          break;
      }
    }
    layer = next;
  }
  for (int o = 0; o < outputs; ++o)
    n.output("y" + std::to_string(o), n.mux(pick(layer), pick(layer), pick(layer)));
  return n;
}

// Serial-bus flag logic: per-flag set / clear / hold driven by shared
// condition strobes, plus any / all observation outputs.
netlist i2c(int flags, prng& r) {
  netlist n;
  const int conds = std::max(3, flags / 2);
  const std::vector<int> cond = add_inputs(n, "cond", conds);
  const std::vector<int> state = add_inputs(n, "s", flags);
  const auto pick = [&] { return cond[r.below(static_cast<std::uint64_t>(conds))]; };
  for (int i = 0; i < flags; ++i) {
    const int set = n.and_({pick(), pick()});
    const int clear = n.and_({pick(), pick()}, {false, true});
    const int hold = n.and_({clear, state[static_cast<std::size_t>(i)]}, {true, false});
    n.output("next_s" + std::to_string(i), n.or_({set, hold}));
  }
  n.output("any_flag", n.or_(state));
  n.output("all_flags", n.and_(state));
  return n;
}

}  // namespace

circuit generate(const std::string& family, int size, int size2,
                 std::uint64_t variant) {
  prng r(variant * 0x9e3779b97f4a7c15ULL + 0x51ed2701);
  circuit c;
  c.family = family;
  c.size = size;
  c.size2 = size2;
  c.variant = variant;
  if (family == "decoder") c.net = decoder(size, r);
  else if (family == "mux") c.net = mux(size, r);
  else if (family == "priority") c.net = priority(size);
  else if (family == "parity") c.net = parity(size, std::max(1, size2), r);
  else if (family == "adder") c.net = adder(size, r);
  else if (family == "comparator") c.net = comparator(size, r);
  else if (family == "arbiter") c.net = arbiter(size, size2);
  else if (family == "int2float") c.net = int2float(size, r);
  else if (family == "router") c.net = router(size, r);
  else if (family == "ctrl") c.net = ctrl(size, std::max(1, size2), r);
  else if (family == "cavlc") c.net = cavlc(size, std::max(1, size2), r);
  else if (family == "i2c") c.net = i2c(size, r);
  else throw std::invalid_argument("unknown circuit family '" + family + "'");
  c.net.name = family + std::to_string(size) +
               (size2 > 0 ? "x" + std::to_string(size2) : std::string()) + "_" +
               std::to_string(variant % 100000);
  c.blif = c.net.to_blif();
  return c;
}

}  // namespace perfbench
