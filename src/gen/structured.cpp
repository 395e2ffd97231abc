// Structure-aware random circuit generator (see generators.hpp for the
// knob semantics). The shape controls — weighted gate mix, recency-biased
// fanin, injected false-path blocks — exist so differential fuzzing visits
// the circuit families each verifier stage was built for, not just the
// uniform random DAGs `random_circuit` produces.
#include <algorithm>
#include <string>
#include <vector>

#include "gen/builder.hpp"
#include "gen/generators.hpp"
#include "gen/rng.hpp"

namespace waveck::gen {

using detail::indexed;
namespace {

struct WeightedType {
  GateType type;
  unsigned weight;
};

GateType pick_type(Rng& rng, const std::vector<WeightedType>& mix,
                   unsigned total) {
  std::uint64_t roll = rng.below(total);
  for (const auto& wt : mix) {
    if (roll < wt.weight) return wt.type;
    roll -= wt.weight;
  }
  return mix.back().type;  // unreachable for a consistent total
}

}  // namespace

Circuit structured_random_circuit(const StructuredCircuitConfig& cfg) {
  Rng rng(cfg.seed);
  Circuit c(indexed("sfuzz", cfg.seed));

  std::vector<NetId> pool;
  pool.reserve(cfg.inputs + cfg.gates);
  for (unsigned i = 0; i < cfg.inputs; ++i) {
    const NetId id = c.add_net(indexed("i", i));
    c.declare_input(id);
    pool.push_back(id);
  }

  std::vector<WeightedType> mix;
  unsigned total = 0;
  const auto add_mix = [&](GateType t, unsigned w) {
    if (w == 0) return;
    mix.push_back({t, w});
    total += w;
  };
  add_mix(GateType::kAnd, cfg.w_and);
  add_mix(GateType::kOr, cfg.w_or);
  add_mix(GateType::kNand, cfg.w_nand);
  add_mix(GateType::kNor, cfg.w_nor);
  add_mix(GateType::kXor, cfg.w_xor);
  add_mix(GateType::kXnor, cfg.w_xnor);
  add_mix(GateType::kNot, cfg.w_not);
  add_mix(GateType::kBuf, cfg.w_buf);
  add_mix(GateType::kMux, cfg.w_mux);
  if (mix.empty()) add_mix(GateType::kAnd, 1);

  // Recency-biased net draw: reconvergent fanout arises when several gates
  // in a row pull from the same small recent window.
  const auto draw = [&]() -> NetId {
    const std::size_t window =
        std::min<std::size_t>(cfg.recent_window ? cfg.recent_window : 1,
                              pool.size());
    if (rng.chance(cfg.reconvergence_percent)) {
      return pool[pool.size() - 1 - rng.below(window)];
    }
    return pool[rng.below(pool.size())];
  };

  for (unsigned g = 0; g < cfg.gates; ++g) {
    const GateType t = pick_type(rng, mix, total);
    std::size_t fanin = 0;
    if (is_unary(t)) {
      fanin = 1;
    } else if (t == GateType::kMux) {
      fanin = 3;
    } else if (is_xor_like(t)) {
      fanin = cfg.unary_xor_percent != 0 && rng.chance(cfg.unary_xor_percent)
                  ? 1
                  : 2;
    } else {
      fanin = 2 + rng.below(2);
    }
    std::vector<NetId> ins;
    ins.reserve(fanin);
    for (std::size_t i = 0; i < fanin; ++i) {
      NetId pick = draw();
      // Redraw a couple of times to avoid degenerate duplicate fanin
      // (XOR(a,a) is a constant); keep the duplicate if chance insists —
      // constants are legal circuits and worth fuzzing occasionally.
      for (int tries = 0; tries < 2; ++tries) {
        bool dup = false;
        for (NetId have : ins) dup = dup || have == pick;
        if (!dup) break;
        pick = draw();
      }
      ins.push_back(pick);
    }
    const NetId out = c.add_net(indexed("g", g));
    c.add_gate(t, out, std::move(ins));
    pool.push_back(out);
  }

  const unsigned outs =
      std::max(1u, std::min<unsigned>(cfg.outputs, cfg.gates ? cfg.gates : 1));
  for (unsigned i = 0; i < outs && i < pool.size(); ++i) {
    c.declare_output(pool[pool.size() - 1 - i]);
  }
  c.finalize();

  static constexpr FalsePathKind kKinds[] = {
      FalsePathKind::kLocalChain, FalsePathKind::kDominatorDiamond,
      FalsePathKind::kStemContradiction};
  for (unsigned b = 0; b < cfg.false_path_blocks; ++b) {
    append_false_path_block(c, kKinds[b % 3], cfg.false_path_stages,
                            indexed("fp", b));
  }

  // Randomized per-gate delay annotation, after the false-path blocks so
  // their gates get annotated too. Iteration is by gate index: stable.
  const std::int64_t dmax_cap = cfg.delay_max > 0 ? cfg.delay_max : 1;
  for (GateId gid : c.all_gates()) {
    const auto hi = static_cast<std::int64_t>(
        1 + rng.below(static_cast<std::uint64_t>(dmax_cap)));
    const auto lo = cfg.delay_intervals
                        ? static_cast<std::int64_t>(
                              rng.below(static_cast<std::uint64_t>(hi + 1)))
                        : hi;
    c.gate_mut(gid).delay = DelaySpec(lo, hi);
  }
  return c;
}

}  // namespace waveck::gen
