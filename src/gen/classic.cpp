// Didactic circuits: the paper's Figure 1, ISCAS c17, parity trees, and the
// random-DAG generator.
#include <string>
#include <vector>

#include "gen/builder.hpp"
#include "gen/generators.hpp"
#include "gen/rng.hpp"

namespace waveck::gen {

using detail::indexed;

Circuit hrapcenko(std::int64_t gate_delay) {
  Circuit c("hrapcenko");
  const DelaySpec d = DelaySpec::fixed(gate_delay);
  auto in = [&](const std::string& n) {
    const NetId id = c.add_net(n);
    c.declare_input(id);
    return id;
  };
  const NetId e1 = in("e1"), e2 = in("e2"), e3 = in("e3"), e4 = in("e4");
  const NetId e5 = in("e5"), e6 = in("e6"), e7 = in("e7");
  const NetId n1 = c.add_net("n1"), n2 = c.add_net("n2");
  const NetId n3 = c.add_net("n3"), n4 = c.add_net("n4");
  const NetId n5 = c.add_net("n5"), n6 = c.add_net("n6");
  const NetId n7 = c.add_net("n7"), s = c.add_net("s");

  c.add_gate(GateType::kAnd, n1, {e1, e2}, d);  // g1
  c.add_gate(GateType::kAnd, n2, {n1, e3}, d);  // g2: e3 non-ctrl = 1
  c.add_gate(GateType::kOr, n3, {n2, e4}, d);   // g3
  c.add_gate(GateType::kAnd, n4, {n3, e5}, d);  // g4
  c.add_gate(GateType::kAnd, n5, {n4, e6}, d);  // g5 (short branch)
  c.add_gate(GateType::kOr, n6, {n4, e3}, d);   // g6: e3 non-ctrl = 0 (!)
  c.add_gate(GateType::kAnd, n7, {n6, e7}, d);  // g7
  c.add_gate(GateType::kOr, s, {n7, n5}, d);    // g8
  c.declare_output(s);
  c.finalize();
  return c;
}

Circuit c17() {
  Circuit c("c17");
  auto in = [&](const std::string& n) {
    const NetId id = c.add_net(n);
    c.declare_input(id);
    return id;
  };
  const NetId g1 = in("1"), g2 = in("2"), g3 = in("3"), g6 = in("6"),
              g7 = in("7");
  const NetId n10 = c.add_net("10"), n11 = c.add_net("11"),
              n16 = c.add_net("16"), n19 = c.add_net("19"),
              n22 = c.add_net("22"), n23 = c.add_net("23");
  c.add_gate(GateType::kNand, n10, {g1, g3});
  c.add_gate(GateType::kNand, n11, {g3, g6});
  c.add_gate(GateType::kNand, n16, {g2, n11});
  c.add_gate(GateType::kNand, n19, {n11, g7});
  c.add_gate(GateType::kNand, n22, {n10, n16});
  c.add_gate(GateType::kNand, n23, {n16, n19});
  c.declare_output(n22);
  c.declare_output(n23);
  c.finalize();
  return c;
}

Circuit parity_tree(unsigned inputs) {
  Circuit c(indexed("parity", inputs));
  std::vector<NetId> layer;
  for (unsigned i = 0; i < inputs; ++i) {
    const NetId id = c.add_net(indexed("i", i));
    c.declare_input(id);
    layer.push_back(id);
  }
  unsigned counter = 0;
  while (layer.size() > 1) {
    std::vector<NetId> next;
    for (std::size_t i = 0; i + 1 < layer.size(); i += 2) {
      const NetId t = c.add_net(indexed("x", counter++));
      c.add_gate(GateType::kXor, t, {layer[i], layer[i + 1]});
      next.push_back(t);
    }
    if (layer.size() % 2) next.push_back(layer.back());
    layer = std::move(next);
  }
  c.declare_output(layer.front());
  c.finalize();
  return c;
}

Circuit random_circuit(const RandomCircuitConfig& cfg) {
  Rng rng(cfg.seed);
  Circuit c(indexed("rand", cfg.seed));
  std::vector<NetId> pool;
  for (unsigned i = 0; i < cfg.inputs; ++i) {
    const NetId id = c.add_net(indexed("i", i));
    c.declare_input(id);
    pool.push_back(id);
  }
  std::vector<GateType> types{GateType::kAnd,  GateType::kNand, GateType::kOr,
                              GateType::kNor,  GateType::kNot,  GateType::kBuf};
  if (cfg.with_xor) {
    types.push_back(GateType::kXor);
    types.push_back(GateType::kXnor);
  }
  if (cfg.with_mux) types.push_back(GateType::kMux);

  for (unsigned g = 0; g < cfg.gates; ++g) {
    const GateType t = types[rng.below(types.size())];
    std::vector<NetId> ins;
    std::size_t fanin = 0;
    if (is_unary(t)) {
      fanin = 1;
    } else if (t == GateType::kMux) {
      fanin = 3;
    } else if (is_xor_like(t)) {
      fanin = 2;
    } else {
      fanin = 2 + rng.below(2);
    }
    for (std::size_t i = 0; i < fanin; ++i) {
      ins.push_back(pool[rng.below(pool.size())]);
    }
    const NetId out = c.add_net(indexed("g", g));
    c.add_gate(t, out, std::move(ins), DelaySpec::fixed(1 + rng.below(10)));
    pool.push_back(out);
  }
  // Outputs: the last few generated nets (guaranteed driven).
  const unsigned outs = std::min<unsigned>(cfg.outputs, cfg.gates);
  for (unsigned i = 0; i < outs; ++i) {
    c.declare_output(pool[pool.size() - 1 - i]);
  }
  c.finalize();
  return c;
}

}  // namespace waveck::gen
