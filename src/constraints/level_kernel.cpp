#include "constraints/level_kernel.hpp"

#include <algorithm>

namespace waveck {

void LevelPlan::build(const Circuit& c,
                      const std::vector<std::uint32_t>& gate_level) {
  const std::size_t ng = c.num_gates();
  num_levels = 0;
  for (std::uint32_t lv : gate_level) {
    num_levels = std::max<std::size_t>(num_levels, lv + 1);
  }

  // Level-major, topological order within a level: topo_order() already is
  // a topological order, so a stable sort on level alone yields it.
  gate_of_slot.clear();
  gate_of_slot.reserve(ng);
  for (GateId g : c.topo_order()) gate_of_slot.push_back(g.value());
  std::stable_sort(gate_of_slot.begin(), gate_of_slot.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return gate_level[a] < gate_level[b];
                   });

  slot_of_gate.assign(ng, 0);
  type.assign(ng, GateType::kAnd);
  out_net.assign(ng, 0);
  ins_offset.assign(ng + 1, 0);
  dmin.assign(ng, 0);
  dmax.assign(ng, 0);
  ins_net.clear();
  level_begin.assign(num_levels + 1, 0);

  for (std::uint32_t s = 0; s < ng; ++s) {
    const std::uint32_t gi = gate_of_slot[s];
    slot_of_gate[gi] = s;
    const Gate& g = c.gate(GateId{gi});
    type[s] = g.type;
    out_net[s] = g.out.value();
    ins_offset[s] = static_cast<std::uint32_t>(ins_net.size());
    for (NetId in : g.ins) ins_net.push_back(in.value());
    dmin[s] = g.delay.dmin;
    dmax[s] = g.delay.dmax;
  }
  ins_offset[ng] = static_cast<std::uint32_t>(ins_net.size());

  // Level boundaries over slots (slots are level-major).
  for (std::size_t lv = 0, s = 0; lv <= num_levels; ++lv) {
    while (s < ng && gate_level[gate_of_slot[s]] < lv) ++s;
    level_begin[lv] = static_cast<std::uint32_t>(s);
  }
}

std::size_t LevelPlan::capacity_bytes() const {
  return (slot_of_gate.capacity() + gate_of_slot.capacity() +
          level_begin.capacity() + out_net.capacity() + ins_offset.capacity() +
          ins_net.capacity()) *
             sizeof(std::uint32_t) +
         type.capacity() * sizeof(GateType) +
         (dmin.capacity() + dmax.capacity()) * sizeof(std::int64_t);
}

bool simd_compiled() { return false; }
bool simd_supported() { return false; }
bool simd_enabled() { return false; }

}  // namespace waveck
