#include "analysis/carrier_cache.hpp"

#include <algorithm>
#include <cassert>

#include "common/flight_recorder.hpp"

namespace waveck {

CarrierCache::CarrierCache(ConstraintSystem& cs, const TimingCheck& check)
    : cs_(cs),
      check_(check) {
  cs_.enable_change_log();
  const Circuit& c = cs_.circuit();
  order_.reserve(c.num_nets());
  const auto& topo = c.topo_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    order_.push_back(c.gate(*it).out);
  }
  for (std::size_t i = 0; i < c.num_nets(); ++i) {
    const NetId n{static_cast<std::uint32_t>(i)};
    if (!c.net(n).driver.valid()) order_.push_back(n);
  }
  assert(order_.size() == c.num_nets());
  net_pos_.assign(c.num_nets(), 0);
  for (std::size_t i = 0; i < order_.size(); ++i) {
    net_pos_[order_[i].index()] = static_cast<std::uint32_t>(i);
  }
  in_cone_.assign(c.num_nets(), 0);
  bottom_set_.distance.assign(c.num_nets(), Time::neg_inf());
}

bool CarrierCache::finalizable(NetId n) const {
  // Matches which nets `dynamic_carriers` ever validates: gate outputs,
  // declared primary inputs, and the checked output itself (degenerate
  // input-as-output netlists from the fuzz shrinker).
  const Net& net = cs_.circuit().net(n);
  return net.driver.valid() || net.is_primary_input || n == check_.output;
}

Time CarrierCache::carrier_distance(NetId n, Time cand) const {
  if (cand == Time::neg_inf() || !finalizable(n)) return Time::neg_inf();
  assert(check_.delta.is_finite() && cand.is_finite());
  const Time bound = Time(check_.delta.value() - cand.value());
  return cs_.has_transition_at_or_after(n, bound) ? cand : Time::neg_inf();
}

Time CarrierCache::pull_candidate(NetId n) const {
  const Circuit& c = cs_.circuit();
  Time cand = n == check_.output ? Time(0) : Time::neg_inf();
  for (GateId gid : c.net(n).fanouts) {
    const Gate& g = c.gate(gid);
    const Time k = set_.distance[g.out.index()];
    if (k == Time::neg_inf()) continue;
    cand = Time::max(cand, k + g.delay.dmax);
  }
  return cand;
}

void CarrierCache::rebuild_full() {
  const Circuit& c = cs_.circuit();
  set_.distance.assign(c.num_nets(), Time::neg_inf());
  cand_.assign(c.num_nets(), Time::neg_inf());
  for (NetId n : order_) {
    const Time cand = pull_candidate(n);
    cand_[n.index()] = cand;
    set_.distance[n.index()] = carrier_distance(n, cand);
  }
  doms_valid_ = false;
}

void CarrierCache::rebuild_cone() {
  const Circuit& c = cs_.circuit();
  // Upstream fan-in closure of the flipped nets: a distance change on net y
  // feeds the candidate distances of y's driver-gate inputs, and nothing
  // else. Every net whose value can change is therefore in this cone.
  cone_.clear();
  std::uint32_t pos_lo = UINT32_MAX;
  std::uint32_t pos_hi = 0;
  auto add = [&](NetId n) {
    std::uint8_t& f = in_cone_[n.index()];
    if (f == 0) {
      f = 1;
      cone_.push_back(n);
      const std::uint32_t p = net_pos_[n.index()];
      pos_lo = std::min(pos_lo, p);
      pos_hi = std::max(pos_hi, p);
    }
  };
  for (NetId n : flips_) add(n);
  for (std::size_t i = 0; i < cone_.size(); ++i) {
    const GateId drv = c.net(cone_[i]).driver;
    if (!drv.valid()) continue;
    for (NetId in : c.gate(drv).ins) add(in);
  }

  // Downstream-before-upstream sweep: rather than sorting the cone, scan
  // the precomputed processing order over the cone's position span (a flag
  // test per position -- cheaper than O(cone log cone) for these sizes).
  bool dist_changed = false;
  for (std::uint32_t p = pos_lo; p <= pos_hi; ++p) {
    const NetId n = order_[p];
    if (in_cone_[n.index()] == 0) continue;
    const Time cand = pull_candidate(n);
    cand_[n.index()] = cand;
    const Time nd = carrier_distance(n, cand);
    if (nd != set_.distance[n.index()]) {
      set_.distance[n.index()] = nd;
      dist_changed = true;
    }
    in_cone_[n.index()] = 0;
  }
  if (dist_changed) doms_valid_ = false;
}

void CarrierCache::sync() {
  const std::uint64_t gen = cs_.domain_generation();
  if (!built_) {
    cs_.drain_changed_nets([](NetId) {});
    rebuild_full();
    built_ = true;
    synced_gen_ = gen;
    probe::cache(counters_, flight::kCacheMiss);
    return;
  }
  if (synced_gen_ == gen) {
    probe::cache(counters_, flight::kCacheHit);
    return;
  }
  // A domain change matters only if it flips the Def. 7 status under the
  // net's current candidate distance; candidate distances themselves only
  // move when a downstream status flips.
  flips_.clear();
  cs_.drain_changed_nets([&](NetId n) {
    if (carrier_distance(n, cand_[n.index()]) != set_.distance[n.index()]) {
      flips_.push_back(n);
    }
  });
  synced_gen_ = gen;
  if (flips_.empty()) {
    probe::cache(counters_, flight::kCacheHit);
    return;
  }
  probe::cache(counters_, flight::kCacheMiss);
  rebuild_cone();
}

const CarrierSet& CarrierCache::carriers() {
  // An inconsistent system has no sigma-compatible waveform anywhere; the
  // cached state is deliberately left alone (not even the log is drained)
  // so the next consistent query -- typically right after `pop_to` -- sees
  // every restore.
  if (cs_.inconsistent()) return bottom_set_;
  sync();
  return set_;
}

const std::vector<NetId>& CarrierCache::dominators() {
  if (cs_.inconsistent()) return empty_doms_;
  sync();
  if (!doms_valid_) {
    doms_ = timing_dominators(cs_.circuit(), check_, set_, dom_scratch_);
    doms_valid_ = true;
    probe::cache(counters_, flight::kCacheDomRebuild);
  }
  return doms_;
}

std::size_t apply_dominator_implications(ConstraintSystem& cs,
                                         const TimingCheck& check,
                                         CarrierCache* cache) {
  if (cache == nullptr) return apply_dominator_implications(cs, check);
  if (cs.inconsistent()) return 0;
  const std::vector<NetId>& doms = cache->dominators();
  return apply_dominator_restrictions(cs, check, cache->carriers(), doms);
}

}  // namespace waveck
