// Internal net-level construction helpers shared by the generators.
#pragma once

#include <cassert>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "netlist/circuit.hpp"

namespace waveck::gen::detail {

/// `prefix` followed by `i` in decimal, the one way generated names are
/// built. It appends, where `"a" + std::to_string(i)` would prepend to the
/// number's string: GCC 12 flags that prepend as an overlapping memcpy
/// (-Wrestrict, a false positive). The names are the same bytes.
template <typename Int>
std::string indexed(std::string_view prefix, Int i) {
  std::string s(prefix);
  s += std::to_string(i);
  return s;
}

struct Builder {
  Circuit c;
  unsigned tmp = 0;

  explicit Builder(std::string name) : c(std::move(name)) {}

  NetId input(const std::string& n) {
    const NetId id = c.add_net(n);
    c.declare_input(id);
    return id;
  }
  NetId fresh() { return c.add_net(indexed("t", tmp++)); }
  NetId op(GateType t, std::vector<NetId> ins) {
    const NetId out = fresh();
    c.add_gate(t, out, std::move(ins));
    return out;
  }
  NetId named(GateType t, const std::string& name, std::vector<NetId> ins) {
    const NetId out = c.add_net(name);
    c.add_gate(t, out, std::move(ins));
    return out;
  }
  NetId out(GateType t, const std::string& name, std::vector<NetId> ins) {
    const NetId o = named(t, name, std::move(ins));
    c.declare_output(o);
    return o;
  }

  /// Full adder; returns {sum, cout}. The sum net is named `sum_name` when
  /// that is non-empty (fresh otherwise).
  std::pair<NetId, NetId> full_adder(NetId a, NetId b, NetId cin,
                                     const std::string& sum_name = {}) {
    const NetId p = op(GateType::kXor, {a, b});
    const NetId s = sum_name.empty()
                        ? op(GateType::kXor, {p, cin})
                        : named(GateType::kXor, sum_name, {p, cin});
    const NetId g = op(GateType::kAnd, {a, b});
    const NetId pc = op(GateType::kAnd, {p, cin});
    return {s, op(GateType::kOr, {g, pc})};
  }
  std::pair<NetId, NetId> half_adder(NetId a, NetId b) {
    return {op(GateType::kXor, {a, b}), op(GateType::kAnd, {a, b})};
  }

  /// Balanced XOR tree.
  NetId xor_tree(std::vector<NetId> layer) {
    assert(!layer.empty());
    while (layer.size() > 1) {
      std::vector<NetId> next;
      for (std::size_t i = 0; i + 1 < layer.size(); i += 2) {
        next.push_back(op(GateType::kXor, {layer[i], layer[i + 1]}));
      }
      if (layer.size() % 2) next.push_back(layer.back());
      layer = std::move(next);
    }
    return layer.front();
  }

  /// Gate-level 2:1 mux: sel ? d1 : d0 (AND-OR form). The deselected leg is
  /// actively cut, which is what makes skip structures false paths in
  /// floating mode.
  NetId mux(NetId sel, NetId d0, NetId d1) {
    const NetId ns = op(GateType::kNot, {sel});
    const NetId t0 = op(GateType::kAnd, {ns, d0});
    const NetId t1 = op(GateType::kAnd, {sel, d1});
    return op(GateType::kOr, {t0, t1});
  }

  /// Carry-skip adder core over pre-existing operand nets: ripple blocks of
  /// `block` bits, block carry-out selected between ripple-out and block
  /// carry-in by the AND of the block propagates (the paper's Figure 2
  /// skip). Returns the sum nets; `cout` receives the final carry. Sum nets
  /// are named `<prefix><i>` when `prefix` is non-empty (fresh otherwise).
  std::vector<NetId> carry_skip_core(const std::vector<NetId>& a,
                                     const std::vector<NetId>& b, NetId cin,
                                     unsigned block, NetId* cout,
                                     const std::string& prefix = {}) {
    assert(a.size() == b.size());
    const unsigned bits = static_cast<unsigned>(a.size());
    std::vector<NetId> sums(bits);
    NetId block_cin = cin;
    for (unsigned lo = 0; lo < bits; lo += block) {
      const unsigned hi = std::min(bits, lo + block);
      NetId carry = block_cin;
      std::vector<NetId> props;
      for (unsigned i = lo; i < hi; ++i) {
        const NetId p = op(GateType::kXor, {a[i], b[i]});
        props.push_back(p);
        sums[i] = prefix.empty()
                      ? op(GateType::kXor, {p, carry})
                      : named(GateType::kXor, prefix + std::to_string(i),
                              {p, carry});
        const NetId g = op(GateType::kAnd, {a[i], b[i]});
        const NetId pc = op(GateType::kAnd, {p, carry});
        carry = op(GateType::kOr, {g, pc});
      }
      const NetId bp = op(GateType::kAnd, props);
      block_cin = mux(bp, carry, block_cin);
    }
    if (cout != nullptr) *cout = block_cin;
    return sums;
  }
};

}  // namespace waveck::gen::detail
