// Additional arithmetic architectures for the adder/multiplier family
// study: carry-select, Kogge-Stone, Wallace tree.
#include <string>
#include <vector>

#include "gen/builder.hpp"
#include "gen/generators.hpp"

namespace waveck::gen {

using detail::Builder;
using detail::indexed;

Circuit carry_select_adder(unsigned bits, unsigned block) {
  Builder b(indexed(indexed("csel", bits) + "x", block));
  std::vector<NetId> a(bits), bb(bits);
  for (unsigned i = 0; i < bits; ++i) a[i] = b.input(indexed("a", i));
  for (unsigned i = 0; i < bits; ++i) bb[i] = b.input(indexed("b", i));
  const NetId cin = b.input("cin");
  // A constant-0 / constant-1 pair for the speculative carry-ins.
  const NetId n0 = b.op(GateType::kAnd, {a[0], b.op(GateType::kNot, {a[0]})});
  const NetId n1 = b.op(GateType::kNot, {n0});

  NetId block_cin = cin;
  for (unsigned lo = 0; lo < bits; lo += block) {
    const unsigned hi = std::min(bits, lo + block);
    // Two speculative ripples.
    struct Spec {
      std::vector<NetId> sums;
      NetId cout;
    };
    auto ripple = [&](NetId carry_in) {
      Spec s;
      NetId carry = carry_in;
      for (unsigned i = lo; i < hi; ++i) {
        auto [sum, co] = b.full_adder(a[i], bb[i], carry);
        s.sums.push_back(sum);
        carry = co;
      }
      s.cout = carry;
      return s;
    };
    const Spec s0 = ripple(n0);
    const Spec s1 = ripple(n1);
    // Select by the real block carry-in.
    for (unsigned i = lo; i < hi; ++i) {
      const NetId sel =
          b.mux(block_cin, s0.sums[i - lo], s1.sums[i - lo]);
      const NetId out = b.c.add_net(indexed("s", i));
      b.c.add_gate(GateType::kBuf, out, {sel});
      b.c.declare_output(out);
    }
    block_cin = b.named(GateType::kBuf, indexed("bc", hi),
                        {b.mux(block_cin, s0.cout, s1.cout)});
  }
  b.out(GateType::kBuf, "cout", {block_cin});
  b.c.finalize();
  return b.c;
}

Circuit kogge_stone_adder(unsigned bits) {
  Builder b(indexed("ks", bits));
  std::vector<NetId> a(bits), bb(bits);
  for (unsigned i = 0; i < bits; ++i) a[i] = b.input(indexed("a", i));
  for (unsigned i = 0; i < bits; ++i) bb[i] = b.input(indexed("b", i));
  const NetId cin = b.input("cin");

  // Bit-level generate/propagate; cin folded into stage-0 g of bit 0.
  std::vector<NetId> g(bits), p(bits), psum(bits);
  for (unsigned i = 0; i < bits; ++i) {
    psum[i] = b.op(GateType::kXor, {a[i], bb[i]});
    p[i] = psum[i];
    g[i] = b.op(GateType::kAnd, {a[i], bb[i]});
  }
  g[0] = b.op(GateType::kOr, {g[0], b.op(GateType::kAnd, {p[0], cin})});

  // Prefix network: (g, p) o (g', p') = (g + p g', p p').
  for (unsigned dist = 1; dist < bits; dist <<= 1) {
    std::vector<NetId> ng = g, np = p;
    for (unsigned i = dist; i < bits; ++i) {
      ng[i] = b.op(GateType::kOr,
                   {g[i], b.op(GateType::kAnd, {p[i], g[i - dist]})});
      np[i] = b.op(GateType::kAnd, {p[i], p[i - dist]});
    }
    g = std::move(ng);
    p = std::move(np);
  }

  // carries[i] = carry INTO bit i.
  const NetId s0 = b.named(GateType::kXor, "s0", {psum[0], cin});
  b.c.declare_output(s0);
  for (unsigned i = 1; i < bits; ++i) {
    const NetId sum =
        b.named(GateType::kXor, indexed("s", i), {psum[i], g[i - 1]});
    b.c.declare_output(sum);
  }
  b.out(GateType::kBuf, "cout", {g[bits - 1]});
  b.c.finalize();
  return b.c;
}

Circuit wallace_multiplier(unsigned bits) {
  Builder b(indexed(indexed("wal", bits) + "x", bits));
  std::vector<NetId> a(bits), bb(bits);
  for (unsigned i = 0; i < bits; ++i) a[i] = b.input(indexed("a", i));
  for (unsigned i = 0; i < bits; ++i) bb[i] = b.input(indexed("b", i));

  // Column-wise partial products.
  const unsigned cols = 2 * bits;
  std::vector<std::vector<NetId>> col(cols);
  for (unsigned i = 0; i < bits; ++i) {
    for (unsigned j = 0; j < bits; ++j) {
      col[i + j].push_back(b.op(GateType::kAnd, {a[i], bb[j]}));
    }
  }

  // 3:2 / 2:2 compression until every column holds at most 2 bits.
  bool again = true;
  while (again) {
    again = false;
    std::vector<std::vector<NetId>> next(cols);
    for (unsigned k = 0; k < cols; ++k) {
      auto& bitsk = col[k];
      std::size_t i = 0;
      while (bitsk.size() - i >= 3) {
        auto [s, co] = b.full_adder(bitsk[i], bitsk[i + 1], bitsk[i + 2]);
        next[k].push_back(s);
        if (k + 1 < cols) next[k + 1].push_back(co);
        i += 3;
      }
      if (bitsk.size() - i == 2 && bitsk.size() + next[k].size() > 2) {
        auto [s, co] = b.half_adder(bitsk[i], bitsk[i + 1]);
        next[k].push_back(s);
        if (k + 1 < cols) next[k + 1].push_back(co);
        i += 2;
      }
      for (; i < bitsk.size(); ++i) next[k].push_back(bitsk[i]);
    }
    col = std::move(next);
    for (unsigned k = 0; k < cols; ++k) {
      if (col[k].size() > 2) again = true;
    }
  }

  // Final carry-propagate ripple over the two rows.
  NetId carry;
  bool have_carry = false;
  for (unsigned k = 0; k < cols; ++k) {
    const auto& bitsk = col[k];
    NetId s;
    NetId co;
    bool have_co = false;
    if (bitsk.empty()) {
      if (!have_carry) continue;  // leading empty columns
      s = carry;
      have_carry = false;
    } else if (bitsk.size() == 1 && !have_carry) {
      s = bitsk[0];
    } else if (bitsk.size() == 1) {
      auto [ss, cc] = b.half_adder(bitsk[0], carry);
      s = ss;
      co = cc;
      have_co = true;
      have_carry = false;
    } else if (!have_carry) {
      auto [ss, cc] = b.half_adder(bitsk[0], bitsk[1]);
      s = ss;
      co = cc;
      have_co = true;
    } else {
      auto [ss, cc] = b.full_adder(bitsk[0], bitsk[1], carry);
      s = ss;
      co = cc;
      have_co = true;
      have_carry = false;
    }
    const NetId out = b.c.add_net(indexed("p", k));
    b.c.add_gate(GateType::kBuf, out, {s});
    b.c.declare_output(out);
    if (have_co) {
      carry = co;
      have_carry = true;
    }
  }
  b.c.finalize();
  return b.c;
}

}  // namespace waveck::gen
