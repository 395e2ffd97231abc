// Netlist transforms: solver canonicalization and NOR technology mapping.
//
// The paper evaluates *NOR-gate implementations* of the ISCAS'85 circuits
// with a uniform delay of 10 on every gate output; `map_to_nor` performs
// that re-implementation. `decompose_for_solver` canonicalizes wide
// XOR/XNOR gates (and optionally MUXes) into the 2-input forms the
// constraint projections are exact for.
#pragma once

#include "netlist/circuit.hpp"

namespace waveck {

struct DecomposeOptions {
  /// Split XOR/XNOR with > 2 inputs into balanced 2-input trees.
  bool split_wide_xor = true;
  /// Replace MUX(s,d0,d1) by (NOT s AND d0) OR (s AND d1). When false, MUX
  /// is kept for the dedicated complex-gate constraint model.
  bool lower_mux = false;
};

/// Returns a functionally equivalent circuit in solver-canonical form.
/// Net names are preserved; helper nets get a `__d<N>` suffix. New gates
/// introduced by a split inherit zero delay except the final gate of each
/// tree, which inherits the original gate's delay (so path lengths are
/// preserved exactly for trees of depth 1; deeper trees distribute delay 0
/// on inner nodes, keeping the original gate's [dmin,dmax] on the root).
/// One-input XOR and XNOR become BUF and NOT with the gate's delay.
[[nodiscard]] Circuit decompose_for_solver(const Circuit& c,
                                           const DecomposeOptions& opt = {});

/// Re-implements every gate with NOR gates only (a k-input NOR plus the
/// 1-input NOR as inverter), as in the paper's experimental setup. The
/// resulting circuit has all-zero delays; callers typically follow with
/// `set_uniform_delay(DelaySpec::fixed(10))`.
[[nodiscard]] Circuit map_to_nor(const Circuit& c);

/// Inserts a zero-delay BUF after each net in `nets` and rewires that net's
/// *gate fanouts* to read the buffered copy (primary-output declarations
/// stay on the original net, so the interface is unchanged). Identity
/// function + zero delay means the transform preserves both the Boolean
/// function and every floating-mode settle time exactly — the differential
/// fuzzer uses it as a semantics-preserving mutation that any analysis must
/// be invariant under. Requests naming nonexistent nets are ignored;
/// duplicates insert a single buffer.
[[nodiscard]] Circuit insert_buffers(const Circuit& c,
                                     const std::vector<NetId>& nets);

/// Gate-count statistics helper.
struct GateHistogram {
  std::array<std::size_t, 10> count{};
  [[nodiscard]] std::size_t total() const;
  [[nodiscard]] std::size_t of(GateType t) const {
    return count[static_cast<std::size_t>(t)];
  }
};
[[nodiscard]] GateHistogram histogram(const Circuit& c);

}  // namespace waveck
