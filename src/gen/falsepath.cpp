// Appendable false-path blocks (see generators.hpp for the taxonomy).
#include <string>

#include "gen/builder.hpp"
#include "gen/generators.hpp"
#include "netlist/topo_delay.hpp"

namespace waveck::gen {

using detail::indexed;
namespace {

class Appender {
 public:
  Appender(Circuit& c, std::string prefix)
      : c_(c), prefix_(std::move(prefix)) {}

  NetId op(GateType t, std::vector<NetId> ins) {
    const NetId out =
        c_.add_net(indexed(prefix_ + "_", counter_++));
    c_.add_gate(t, out, std::move(ins));
    return out;
  }
  NetId chain(NetId from, unsigned stages) {
    NetId cur = from;
    for (unsigned i = 0; i < stages; ++i) {
      cur = op(GateType::kDelay, {cur});
    }
    return cur;
  }
  NetId output(GateType t, std::vector<NetId> ins) {
    const NetId out = c_.add_net(prefix_ + "_out");
    c_.add_gate(t, out, std::move(ins));
    c_.declare_output(out);
    return out;
  }

 private:
  Circuit& c_;
  std::string prefix_;
  unsigned counter_ = 0;
};

/// Deepest driven net (by unit-gate depth, so the choice is independent of
/// the delay annotation applied later).
NetId deepest_net(const Circuit& c) {
  std::vector<unsigned> depth(c.num_nets(), 0);
  NetId best = c.outputs().empty() ? c.inputs().front() : c.outputs().front();
  unsigned best_depth = 0;
  for (GateId g : c.topo_order()) {
    const Gate& gate = c.gate(g);
    unsigned d = 0;
    for (NetId in : gate.ins) d = std::max(d, depth[in.index()]);
    depth[gate.out.index()] = d + 1;
    if (d + 1 >= best_depth) {
      best_depth = d + 1;
      best = gate.out;
    }
  }
  return best;
}

/// A shallow driven net (first gate in topological order) for harmless
/// tie-ins.
NetId shallow_net(const Circuit& c) {
  if (c.topo_order().empty()) return c.inputs().front();
  return c.gate(c.topo_order().front()).out;
}

}  // namespace

void append_false_path_block(Circuit& c, FalsePathKind kind, unsigned stages,
                             const std::string& prefix) {
  Appender a(c, prefix);
  const NetId mode = c.inputs().front();

  switch (kind) {
    case FalsePathKind::kLocalChain: {
      // head = AND(H, mode) needs mode = 1; tail = OR(chain, mode) passes
      // late transitions only when mode = 0.
      const NetId h = deepest_net(c);
      const NetId head = a.op(GateType::kAnd, {h, mode});
      const NetId end = a.chain(head, stages);
      a.output(GateType::kOr, {end, mode});
      break;
    }
    case FalsePathKind::kDominatorDiamond: {
      // The kLocalChain contradiction, then d -> {u, w} -> XOR(u, w): the
      // correlated-sibling XOR merge stalls local narrowing; d dominates.
      const NetId h = deepest_net(c);
      const NetId head = a.op(GateType::kAnd, {h, mode});
      const NetId end = a.chain(head, stages);
      const NetId d = a.op(GateType::kOr, {end, mode});
      const NetId u = a.op(GateType::kDelay, {d});
      const NetId w = a.op(GateType::kDelay, {d});
      a.output(GateType::kXor, {u, w});
      break;
    }
    case FalsePathKind::kStemContradiction: {
      // Two chains from the mode stem itself (the stem must be a dynamic
      // carrier for the paper's stem-correlation rule to consider it), with
      // mirror-image gating; a shallow host net ties the block into the
      // host logic without affecting the false path.
      const NetId nmode = a.op(GateType::kNot, {mode});
      const NetId la = a.chain(mode, stages);
      const NetId ga = a.op(GateType::kAnd, {la, mode});   // needs mode = 1
      const NetId ma = a.op(GateType::kDelay, {ga});
      const NetId ha = a.op(GateType::kAnd, {ma, nmode});  // needs mode = 0
      const NetId lb = a.chain(mode, stages);
      const NetId gb = a.op(GateType::kAnd, {lb, nmode});  // needs mode = 0
      const NetId mb = a.op(GateType::kDelay, {gb});
      const NetId hb = a.op(GateType::kAnd, {mb, mode});   // needs mode = 1
      a.output(GateType::kOr, {ha, hb, shallow_net(c)});
      break;
    }
  }
  c.finalize();
}

}  // namespace waveck::gen
