// Adder generators: ripple-carry and the paper's carry-skip adder (Fig. 2).
#include <string>
#include <vector>

#include "gen/builder.hpp"
#include "gen/generators.hpp"

namespace waveck::gen {
using detail::Builder;
using detail::indexed;

Circuit ripple_carry_adder(unsigned bits) {
  Builder b(indexed("rca", bits));
  std::vector<NetId> a(bits), bb(bits);
  for (unsigned i = 0; i < bits; ++i) a[i] = b.input(indexed("a", i));
  for (unsigned i = 0; i < bits; ++i) bb[i] = b.input(indexed("b", i));
  NetId carry = b.input("cin");
  for (unsigned i = 0; i < bits; ++i) {
    auto [sum, cout] = b.full_adder(a[i], bb[i], carry, indexed("s", i));
    b.c.declare_output(sum);
    carry = cout;
  }
  const NetId cout = b.named(GateType::kBuf, "cout", {carry});
  b.c.declare_output(cout);
  b.c.finalize();
  return b.c;
}

Circuit carry_skip_adder(unsigned bits, unsigned block) {
  Builder b(indexed(indexed("csa", bits) + "x", block));
  std::vector<NetId> a(bits), bb(bits);
  for (unsigned i = 0; i < bits; ++i) a[i] = b.input(indexed("a", i));
  for (unsigned i = 0; i < bits; ++i) bb[i] = b.input(indexed("b", i));
  NetId block_cin = b.input("cin");

  for (unsigned lo = 0; lo < bits; lo += block) {
    const unsigned hi = std::min(bits, lo + block);
    NetId carry = block_cin;
    std::vector<NetId> props;
    for (unsigned i = lo; i < hi; ++i) {
      const NetId p = b.op(GateType::kXor, {a[i], bb[i]});
      props.push_back(p);
      const NetId sum =
          b.named(GateType::kXor, indexed("s", i), {p, carry});
      b.c.declare_output(sum);
      const NetId g = b.op(GateType::kAnd, {a[i], bb[i]});
      const NetId pc = b.op(GateType::kAnd, {p, carry});
      carry = b.op(GateType::kOr, {g, pc});
    }
    // Skip path: P = AND of the block propagates selects between the ripple
    // carry-out and the block carry-in (a gate-level multiplexer, the NAND
    // mux of the paper's Figure 2). The mux *actively deselects* the ripple
    // chain when every bit propagates, so the full block ripple is a false
    // path in floating mode -- an OR-ed skip would only cut final-1
    // carries.
    const NetId bp = b.op(GateType::kAnd, props);
    const NetId nbp = b.op(GateType::kNot, {bp});
    const NetId via_ripple = b.op(GateType::kAnd, {nbp, carry});
    const NetId via_skip = b.op(GateType::kAnd, {bp, block_cin});
    block_cin = b.named(GateType::kOr, indexed("bc", hi),
                        {via_ripple, via_skip});
  }
  const NetId cout = b.named(GateType::kBuf, "cout", {block_cin});
  b.c.declare_output(cout);
  b.c.finalize();
  return b.c;
}

}  // namespace waveck::gen
