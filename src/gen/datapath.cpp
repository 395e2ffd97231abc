// Datapath generators: array multiplier (c6288-class), Hamming SEC/DED
// correctors (c499/c1355/c1908-class), ALU (c880/c3540/c5315-class),
// priority controller (c432-class), adder+comparator (c7552-class).
#include <cassert>
#include <string>
#include <vector>

#include "gen/builder.hpp"
#include "gen/generators.hpp"

namespace waveck::gen {

using detail::Builder;
using detail::indexed;

Circuit array_multiplier(unsigned bits, bool skip_final_adder) {
  Builder b(indexed(indexed("mul", bits) + "x", bits) +
            (skip_final_adder ? "s" : ""));
  std::vector<NetId> a(bits), bb(bits);
  for (unsigned i = 0; i < bits; ++i) a[i] = b.input(indexed("a", i));
  for (unsigned i = 0; i < bits; ++i) bb[i] = b.input(indexed("b", i));

  // Partial products pp[i][j] = a_i AND b_j contribute to column i+j.
  // Carry-save rows, then ripple the last row (the c6288 array topology).
  std::vector<NetId> row(bits);  // running sums, row k holds bits k..k+n-1
  for (unsigned j = 0; j < bits; ++j) {
    row[j] = b.op(GateType::kAnd, {a[j], bb[0]});
  }
  b.out(GateType::kBuf, "p0", {row[0]});

  std::vector<NetId> carry(bits, NetId{});
  bool have_carry = false;
  for (unsigned i = 1; i < bits; ++i) {
    std::vector<NetId> nrow(bits);
    std::vector<NetId> ncarry(bits);
    for (unsigned j = 0; j < bits; ++j) {
      const NetId pp = b.op(GateType::kAnd, {a[j], bb[i]});
      const NetId above = j + 1 < bits ? row[j + 1] : NetId{};
      std::vector<NetId> addends{pp};
      if (above.valid()) addends.push_back(above);
      if (have_carry && carry[j].valid()) addends.push_back(carry[j]);
      if (addends.size() == 1) {
        nrow[j] = addends[0];
        ncarry[j] = NetId{};
      } else if (addends.size() == 2) {
        auto [s, co] = b.half_adder(addends[0], addends[1]);
        nrow[j] = s;
        ncarry[j] = co;
      } else {
        auto [s, co] = b.full_adder(addends[0], addends[1], addends[2]);
        nrow[j] = s;
        ncarry[j] = co;
      }
    }
    row = std::move(nrow);
    carry = std::move(ncarry);
    have_carry = true;
    b.out(GateType::kBuf, indexed("p", i), {row[0]});
  }

  if (skip_final_adder) {
    // Final carry-propagate row as a carry-skip adder (fast-multiplier
    // structure): operands are the surviving sums and carries, weight
    // bits+k. Constant-0 carry-in from a self-masking cone.
    std::vector<NetId> x(bits - 1), y(bits - 1);
    for (unsigned k = 0; k + 1 < bits; ++k) {
      x[k] = row[k + 1];
      y[k] = carry[k];
    }
    const NetId na0 = b.op(GateType::kNot, {a[0]});
    const NetId zero = b.op(GateType::kAnd, {a[0], na0});
    NetId cout;
    const auto sums = b.carry_skip_core(x, y, zero, 4, &cout);
    for (unsigned k = 0; k + 1 < bits; ++k) {
      b.out(GateType::kBuf, indexed("p", bits + k), {sums[k]});
    }
    b.out(GateType::kBuf, indexed("p", 2 * bits - 1), {cout});
    b.c.finalize();
    return b.c;
  }

  // Final row: ripple row[1..] + carry[0..] into the upper product bits.
  NetId rc;
  bool have_rc = false;
  for (unsigned j = 1; j < bits; ++j) {
    const NetId sum_in = row[j];
    const NetId carry_in = carry[j - 1].valid() ? carry[j - 1] : NetId{};
    NetId s;
    NetId co = NetId{};
    if (!have_rc && !carry_in.valid()) {
      s = sum_in;
    } else if (!have_rc) {
      auto [ss, cc] = b.half_adder(sum_in, carry_in);
      s = ss;
      co = cc;
    } else if (!carry_in.valid()) {
      auto [ss, cc] = b.half_adder(sum_in, rc);
      s = ss;
      co = cc;
    } else {
      auto [ss, cc] = b.full_adder(sum_in, carry_in, rc);
      s = ss;
      co = cc;
    }
    b.out(GateType::kBuf, indexed("p", bits - 1 + j), {s});
    if (co.valid()) {
      rc = co;
      have_rc = true;
    } else {
      have_rc = false;
    }
  }
  if (have_rc) {
    b.out(GateType::kBuf, indexed("p", 2 * bits - 1), {rc});
  }
  b.c.finalize();
  return b.c;
}

Circuit ecc_corrector(unsigned data, bool double_error_detect) {
  Builder b((double_error_detect ? "secded" : "sec") + std::to_string(data));
  // Check-bit count: smallest r with 2^r >= data + r + 1.
  unsigned r = 1;
  while ((1u << r) < data + r + 1) ++r;

  std::vector<NetId> d(data);
  for (unsigned i = 0; i < data; ++i) d[i] = b.input(indexed("d", i));
  std::vector<NetId> chk(r);
  for (unsigned i = 0; i < r; ++i) chk[i] = b.input(indexed("c", i));
  NetId overall;
  if (double_error_detect) overall = b.input("cp");

  // Hamming positions: data bit i sits at the i-th non-power-of-two code
  // position (1-based).
  std::vector<unsigned> pos(data);
  {
    unsigned p = 1, i = 0;
    while (i < data) {
      if ((p & (p - 1)) != 0) pos[i++] = p;
      ++p;
    }
  }

  // Syndrome bit k = chk_k XOR parity of data bits whose position has bit k.
  std::vector<NetId> synd(r);
  for (unsigned k = 0; k < r; ++k) {
    std::vector<NetId> terms{chk[k]};
    for (unsigned i = 0; i < data; ++i) {
      if (pos[i] & (1u << k)) terms.push_back(d[i]);
    }
    synd[k] = b.xor_tree(terms);
  }

  // Decode: data bit i flips when the syndrome equals pos[i].
  std::vector<NetId> nsynd(r);
  for (unsigned k = 0; k < r; ++k) {
    nsynd[k] = b.op(GateType::kNot, {synd[k]});
  }
  for (unsigned i = 0; i < data; ++i) {
    std::vector<NetId> match;
    for (unsigned k = 0; k < r; ++k) {
      match.push_back((pos[i] & (1u << k)) ? synd[k] : nsynd[k]);
    }
    const NetId hit = b.op(GateType::kAnd, std::move(match));
    b.out(GateType::kXor, indexed("o", i), {d[i], hit});
  }

  if (double_error_detect) {
    // Double-error flag: some syndrome bit set but overall parity matches.
    std::vector<NetId> all = d;
    all.insert(all.end(), chk.begin(), chk.end());
    all.push_back(overall);
    const NetId par = b.xor_tree(all);  // 0 when overall parity consistent
    const NetId any = b.op(GateType::kOr, synd);
    const NetId npar = b.op(GateType::kNot, {par});
    b.out(GateType::kAnd, "ded", {any, npar});
    b.out(GateType::kBuf, "sec_flag", {any});
  }
  b.c.finalize();
  return b.c;
}

Circuit alu(const AluConfig& cfg) {
  Builder b(indexed("alu", cfg.width));
  const unsigned w = cfg.width;
  std::vector<NetId> a(w), bb(w);
  for (unsigned i = 0; i < w; ++i) a[i] = b.input(indexed("a", i));
  for (unsigned i = 0; i < w; ++i) bb[i] = b.input(indexed("b", i));
  const NetId op0 = b.input("op0");
  const NetId op1 = b.input("op1");
  const NetId sub = cfg.with_subtract ? b.input("sub") : NetId{};

  // Operand B, optionally complemented for subtraction.
  std::vector<NetId> bop(w);
  for (unsigned i = 0; i < w; ++i) {
    if (cfg.with_subtract) {
      bop[i] = b.op(GateType::kXor, {bb[i], sub});
    } else {
      bop[i] = bb[i];
    }
  }

  // Adder chain.
  std::vector<NetId> sum(w);
  NetId carry = cfg.with_subtract ? sub : NetId{};
  if (!carry.valid()) {
    // carry-in 0: model with AND(a0, b0) start.
    auto [s0, c0] = b.half_adder(a[0], bop[0]);
    sum[0] = s0;
    carry = c0;
  } else {
    auto [s0, c0] = b.full_adder(a[0], bop[0], carry);
    sum[0] = s0;
    carry = c0;
  }
  for (unsigned i = 1; i < w; ++i) {
    auto [s, co] = b.full_adder(a[i], bop[i], carry);
    sum[i] = s;
    carry = co;
  }

  // Logic unit + op select: op = 00 add, 01 and, 10 or, 11 xor.
  const NetId nop0 = b.op(GateType::kNot, {op0});
  const NetId nop1 = b.op(GateType::kNot, {op1});
  const NetId sel_add = b.op(GateType::kAnd, {nop1, nop0});
  const NetId sel_and = b.op(GateType::kAnd, {nop1, op0});
  const NetId sel_or = b.op(GateType::kAnd, {op1, nop0});
  const NetId sel_xor = b.op(GateType::kAnd, {op1, op0});
  std::vector<NetId> res(w);
  for (unsigned i = 0; i < w; ++i) {
    const NetId andv = b.op(GateType::kAnd, {a[i], bb[i]});
    const NetId orv = b.op(GateType::kOr, {a[i], bb[i]});
    const NetId xorv = b.op(GateType::kXor, {a[i], bb[i]});
    const NetId m0 = b.op(GateType::kAnd, {sel_add, sum[i]});
    const NetId m1 = b.op(GateType::kAnd, {sel_and, andv});
    const NetId m2 = b.op(GateType::kAnd, {sel_or, orv});
    const NetId m3 = b.op(GateType::kAnd, {sel_xor, xorv});
    res[i] = b.out(GateType::kOr, indexed("r", i), {m0, m1, m2, m3});
  }

  if (cfg.with_flags) {
    std::vector<NetId> nres(w);
    for (unsigned i = 0; i < w; ++i) {
      nres[i] = b.op(GateType::kNot, {res[i]});
    }
    b.out(GateType::kAnd, "zero", nres);
    b.out(GateType::kBuf, "cout", {carry});
  }
  if (cfg.with_parity) {
    b.out(GateType::kBuf, "par", {b.xor_tree(res)});
  }
  b.c.finalize();
  return b.c;
}

Circuit priority_controller(unsigned lines) {
  Builder b(indexed("prio3x", lines));
  constexpr unsigned kBuses = 3;
  std::vector<std::vector<NetId>> req(kBuses, std::vector<NetId>(lines));
  std::vector<std::vector<NetId>> en(kBuses, std::vector<NetId>(lines));
  for (unsigned bus = 0; bus < kBuses; ++bus) {
    for (unsigned l = 0; l < lines; ++l) {
      req[bus][l] =
          b.input(indexed(indexed("r", bus) + "_", l));
    }
  }
  for (unsigned l = 0; l < lines; ++l) {
    en[0][l] = b.input(indexed("e", l));
  }

  // Bus activity: any enabled request on the bus (c432's first XOR/NOR
  // layer is approximated with AND-OR here; the mapped NOR version is what
  // the experiments use anyway).
  std::vector<NetId> busy(kBuses);
  for (unsigned bus = 0; bus < kBuses; ++bus) {
    std::vector<NetId> terms;
    for (unsigned l = 0; l < lines; ++l) {
      terms.push_back(bus == 0
                          ? b.op(GateType::kAnd, {req[bus][l], en[0][l]})
                          : req[bus][l]);
    }
    busy[bus] = b.op(GateType::kOr, std::move(terms));
  }
  // Priority: bus 0 beats 1 beats 2.
  const NetId nb0 = b.op(GateType::kNot, {busy[0]});
  const NetId nb1 = b.op(GateType::kNot, {busy[1]});
  std::vector<NetId> win(kBuses);
  win[0] = busy[0];
  win[1] = b.op(GateType::kAnd, {busy[1], nb0});
  win[2] = b.op(GateType::kAnd, {busy[2], nb0, nb1});

  // Per-line grants: request AND its bus won AND no lower-numbered line of
  // the same bus requests (daisy chain).
  for (unsigned bus = 0; bus < kBuses; ++bus) {
    NetId blocked;  // OR of lower-numbered requests
    bool have_blocked = false;
    for (unsigned l = 0; l < lines; ++l) {
      std::vector<NetId> terms{req[bus][l], win[bus]};
      if (have_blocked) {
        terms.push_back(b.op(GateType::kNot, {blocked}));
      }
      b.out(GateType::kAnd,
            indexed(indexed("g", bus) + "_", l),
            std::move(terms));
      blocked = have_blocked ? b.op(GateType::kOr, {blocked, req[bus][l]})
                             : req[bus][l];
      have_blocked = true;
    }
  }
  b.c.finalize();
  return b.c;
}

Circuit adder_comparator(unsigned width) {
  Builder b(indexed("addcmp", width));
  std::vector<NetId> a(width), bb(width);
  for (unsigned i = 0; i < width; ++i) {
    a[i] = b.input(indexed("a", i));
  }
  for (unsigned i = 0; i < width; ++i) {
    bb[i] = b.input(indexed("b", i));
  }
  const NetId cin = b.input("cin");

  NetId carry = cin;
  std::vector<NetId> sum(width);
  for (unsigned i = 0; i < width; ++i) {
    auto [s, co] = b.full_adder(a[i], bb[i], carry);
    sum[i] = s;
    carry = co;
    b.c.declare_output(s);
  }
  b.out(GateType::kBuf, "cout", {carry});

  // Magnitude comparator: gt_i chain from MSB down.
  NetId eq_so_far;
  NetId gt;
  bool have = false;
  for (unsigned i = width; i-- > 0;) {
    const NetId nb = b.op(GateType::kNot, {bb[i]});
    const NetId na = b.op(GateType::kNot, {a[i]});
    const NetId gt_here = b.op(GateType::kAnd, {a[i], nb});
    const NetId eq_here = b.op(GateType::kXnor, {a[i], bb[i]});
    if (!have) {
      gt = gt_here;
      eq_so_far = eq_here;
      have = true;
    } else {
      const NetId propagate = b.op(GateType::kAnd, {eq_so_far, gt_here});
      gt = b.op(GateType::kOr, {gt, propagate});
      eq_so_far = b.op(GateType::kAnd, {eq_so_far, eq_here});
    }
    (void)na;
  }
  b.out(GateType::kBuf, "a_gt_b", {gt});
  b.out(GateType::kBuf, "a_eq_b", {eq_so_far});
  b.out(GateType::kBuf, "parity", {b.xor_tree(sum)});
  b.c.finalize();
  return b.c;
}

}  // namespace waveck::gen
