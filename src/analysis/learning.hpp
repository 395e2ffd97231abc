// Static learning of class implications (paper Section 4, first paragraph).
//
// SOCRATES-style pre-processing: for every net y and class v, assert y = v
// on a scratch constraint system and propagate; every other net x that
// collapses to a single class w is a consequence (y=v) => (x=w). Classes
// that propagate to an outright contradiction are globally impossible and
// reported separately so callers can restrict them permanently.
//
// Only what the fixpoint cannot derive is stored. Projections are monotone
// (Theorem 1), so any state in which y = v holds has a fixpoint at least as
// narrow as the one learning computed from top with y = v: every direct
// consequence is re-derived by gate propagation and is never stored. A
// contrapositive (x=!w) => (y=!v) is stored unless propagating x = !w from
// top already collapses y to !v. Dropping the derivable entries leaves
// every `reach_fixpoint` domain and status unchanged; only the commit order
// differs.
//
// Two passes over flat arrays: pass 1 appends each literal's consequences
// to one CSR array (a row per literal 2y+v; the row of an inverter or
// buffer output is copied from its input's), and pass 2 transposes it to
// test every contrapositive with one array read. doc/PERFORMANCE.md,
// "Learned implications", has the argument and the measurements.
//
// The implications are derived from the Boolean structure only (domains
// start at top), so they remain valid in any narrower state -- in
// particular under every timing check.
#pragma once

#include <vector>

#include "constraints/constraint_system.hpp"
#include "netlist/circuit.hpp"

namespace waveck {

struct LearningResult {
  /// The stored (non-derivable) contrapositives.
  ImplicationTable table;
  /// (net, class) pairs that are globally unsatisfiable.
  std::vector<std::pair<NetId, bool>> impossible;
  std::size_t direct = 0;          // consequences found, none of them stored
  std::size_t contrapositive = 0;  // contrapositives stored (table.size())
};

struct LearningOptions {
  /// Skip learning for circuits with more nets than this (pre-processing
  /// cost guard); an empty table is returned.
  std::size_t max_nets = 200000;
  /// Stop propagating further literals once this many consequences were
  /// found (memory guard on implication-dense circuits such as long carry
  /// chains); the row in progress completes, so it may overshoot by one
  /// row. A contrapositive whose antecedent literal was never propagated
  /// cannot be shown derivable, so it is stored.
  std::size_t max_implications = 2'000'000;
};

[[nodiscard]] LearningResult learn_implications(const Circuit& c,
                                                const LearningOptions& opt = {});

}  // namespace waveck
