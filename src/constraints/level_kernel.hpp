// Level-major gate layout for the constraint system's level sweeps.
//
// The constraint system's bucket queue drains gates one topological level
// at a time; within a level no gate feeds another, so a drained level is
// one sweep over its queued gates. At levelization time the gates are laid
// out as dense "slots", sorted by (level, topological position), with
// packed per-slot operand tables (LevelPlan), so a sweep reads each gate's
// operands straight off the SoA planes without touching Gate objects.
// Every slot is evaluated by the one relational projection, `project_gate`
// (projection.hpp); the constraint system commits what it narrows.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "netlist/circuit.hpp"

namespace waveck {

/// Levelization-time layout: gates sorted by (level, topo position) into
/// dense slots, with packed per-slot operand tables.
struct LevelPlan {
  std::vector<std::uint32_t> slot_of_gate;  // gate index -> slot
  std::vector<std::uint32_t> gate_of_slot;  // slot -> gate index
  std::vector<std::uint32_t> level_begin;   // level -> first slot (n+1 ents)
  // Per-slot packed tables. A slot's inputs occupy
  // ins_net[ins_offset[slot] .. ins_offset[slot + 1]).
  std::vector<GateType> type;
  std::vector<std::uint32_t> out_net;
  std::vector<std::uint32_t> ins_offset;
  std::vector<std::uint32_t> ins_net;
  std::vector<std::int64_t> dmin;
  std::vector<std::int64_t> dmax;
  std::size_t num_levels = 0;

  /// Builds the plan from the circuit and per-gate longest-path levels.
  void build(const Circuit& c, const std::vector<std::uint32_t>& gate_level);

  [[nodiscard]] std::size_t capacity_bytes() const;
};

// The engine has no lane kernels; these report that. Their only caller is
// the benchmark's provenance stamp (wavebench/src/workloads.cpp).
[[nodiscard]] bool simd_compiled();
[[nodiscard]] bool simd_supported();
[[nodiscard]] bool simd_enabled();

}  // namespace waveck
