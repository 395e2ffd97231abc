// Incremental dynamic-carrier / timing-dominator cache.
//
// `dynamic_carriers` (Def. 7) is a function of the current abstract-signal
// domains only; the search loop (case analysis, stem correlation) queries it
// after every decision and every backtrack, historically recomputing the
// whole circuit each time. CarrierCache keeps the carrier set materialised
// and patches it incrementally:
//
//  * The constraint system's `domain_generation()` counter says whether any
//    domain changed since the last query -- equal generations are a pure
//    cache hit.
//  * Otherwise the change log (`drain_changed_nets`) yields the nets whose
//    domains narrowed or were restored by `pop_to`. A domain change matters
//    only if it flips the net's Def. 7 carrier status under its current
//    candidate distance; carrier distances of other nets depend solely on
//    the statuses of their downstream consumers, so a flip can only
//    propagate upstream. The cache recomputes exactly the upstream fan-in
//    cone of the flipped nets, pulling candidate distances in
//    downstream-before-upstream order.
//  * Dominators are recomputed (full `timing_dominators`) lazily, only when
//    some carrier distance actually changed since the last dominator query.
//
// The values are bit-for-bit those of the from-scratch functions -- the
// differential fuzz property `cache_equivalence` and
// `tests/carrier_cache_test.cpp` enforce this.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/carriers.hpp"
#include "common/ids.hpp"
#include "constraints/constraint_system.hpp"
#include "prof/probe.hpp"

namespace waveck {

class CarrierCache {
 public:
  /// Binds to `cs` (kept by reference; must outlive the cache) and turns on
  /// its change log. Construction is cheap; the first `carriers()` /
  /// `dominators()` query pays one full rebuild.
  CarrierCache(ConstraintSystem& cs, const TimingCheck& check);

  CarrierCache(const CarrierCache&) = delete;
  CarrierCache& operator=(const CarrierCache&) = delete;

  /// Current dynamic carriers; identical to `dynamic_carriers(cs, check)`.
  /// The reference stays valid until the next query after a domain change.
  [[nodiscard]] const CarrierSet& carriers();

  /// Current dynamic timing dominators; identical to
  /// `timing_dominators(circuit, check, dynamic_carriers(cs, check))`.
  [[nodiscard]] const std::vector<NetId>& dominators();

  [[nodiscard]] const TimingCheck& check() const { return check_; }

 private:
  void sync();
  void rebuild_full();
  void rebuild_cone();
  [[nodiscard]] Time pull_candidate(NetId n) const;
  [[nodiscard]] Time carrier_distance(NetId n, Time cand) const;
  [[nodiscard]] bool finalizable(NetId n) const;

  ConstraintSystem& cs_;
  TimingCheck check_;

  // Cached values: per-net candidate distances (the max over consumers,
  // before the Def. 7 domain test) and the validated carrier set.
  CarrierSet set_;
  std::vector<Time> cand_;
  std::vector<NetId> doms_;
  bool doms_valid_ = false;
  bool built_ = false;
  std::uint64_t synced_gen_ = 0;

  // Net processing order: gate outputs in reverse topological order, then
  // the undriven nets. Processing in this order guarantees every consumer
  // gate's output distance is final before its inputs are pulled.
  std::vector<NetId> order_;
  std::vector<std::uint32_t> net_pos_;

  // Scratch for the incremental pass.
  std::vector<NetId> flips_;
  std::vector<NetId> cone_;
  std::vector<std::uint8_t> in_cone_;
  DominatorScratch dom_scratch_;

  // Returned for inconsistent systems: no sigma-compatible waveform exists,
  // so the carrier set is empty (matches the from-scratch functions). The
  // cache state is left untouched -- the log is drained on the next
  // consistent query, typically right after a `pop_to`.
  CarrierSet bottom_set_;
  std::vector<NetId> empty_doms_;

  probe::CacheCounters counters_;
};

/// Corollary 1 round backed by the cache; `cache == nullptr` falls back to
/// the from-scratch `apply_dominator_implications(cs, check)`. Produces the
/// identical domain narrowings either way.
std::size_t apply_dominator_implications(ConstraintSystem& cs,
                                         const TimingCheck& check,
                                         CarrierCache* cache);

}  // namespace waveck
