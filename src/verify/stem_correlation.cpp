#include "verify/stem_correlation.hpp"

#include <algorithm>
#include <string_view>
#include <vector>

#include "analysis/carrier_cache.hpp"
#include "common/flight_recorder.hpp"
#include "prof/probe.hpp"

namespace waveck {

StemCorrelationStats apply_stem_correlation(ConstraintSystem& cs,
                                            const TimingCheck& check,
                                            std::span<const NetId> stems,
                                            std::size_t max_stems,
                                            CarrierCache* cache) {
  probe::StemCounters k;

  StemCorrelationStats stats;
  if (cs.inconsistent()) {
    stats.proved_no_violation = true;
    return stats;
  }

  // Order stems nearest-to-the-output first: their split prunes the region
  // the violation must come from.
  CarrierSet local_carriers;
  const CarrierSet* carriers;
  if (cache != nullptr) {
    carriers = &cache->carriers();
  } else {
    local_carriers = dynamic_carriers(cs, check);
    carriers = &local_carriers;
  }
  std::vector<NetId> work(stems.begin(), stems.end());
  std::erase_if(work, [&](NetId n) { return !carriers->is_carrier(n); });
  std::sort(work.begin(), work.end(), [&](NetId a, NetId b) {
    return carriers->distance[a.index()] < carriers->distance[b.index()];
  });
  if (work.size() > max_stems) work.resize(max_stems);

  // Branch snapshots live in flat per-net arenas stamped per stem: no
  // per-stem hashing or node allocation, and only the nets the propagation
  // actually touched (the trail suffix) are ever written.
  const std::size_t num_nets = cs.circuit().num_nets();
  std::vector<AbstractSignal> val0(num_nets), val1(num_nets);
  std::vector<std::uint32_t> stamp0(num_nets, 0), stamp1(num_nets, 0);
  std::vector<NetId> changed0;
  std::uint32_t stem_gen = 0;

  for (NetId stem : work) {
    const AbstractSignal& dom = cs.domain(stem);
    if (dom.is_bottom() || dom.single_class()) continue;

    ++stem_gen;
    changed0.clear();
    bool ok0 = false, ok1 = false;

    {
      const auto mark = cs.push_state();
      cs.restrict_domain(stem, AbstractSignal::class_only(false));
      ok0 = cs.reach_fixpoint() ==
            ConstraintSystem::Status::kPossibleViolation;
      if (ok0) {
        for (std::size_t i = mark; i < cs.trail_size(); ++i) {
          const NetId n = cs.trail_net(i);
          if (stamp0[n.index()] != stem_gen) {
            stamp0[n.index()] = stem_gen;
            val0[n.index()] = cs.domain(n);
            changed0.push_back(n);
          }
        }
      }
      cs.pop_to(mark);
    }
    {
      const auto mark = cs.push_state();
      cs.restrict_domain(stem, AbstractSignal::class_only(true));
      ok1 = cs.reach_fixpoint() ==
            ConstraintSystem::Status::kPossibleViolation;
      if (ok1) {
        for (std::size_t i = mark; i < cs.trail_size(); ++i) {
          const NetId n = cs.trail_net(i);
          if (stamp1[n.index()] != stem_gen) {
            stamp1[n.index()] = stem_gen;
            val1[n.index()] = cs.domain(n);
          }
        }
      }
      cs.pop_to(mark);
    }

    ++stats.stems_processed;
    const std::string_view name = cs.circuit().net(stem).name;
    if (!ok0 && !ok1) {
      // Neither class admits a solution: the whole check is inconsistent.
      cs.restrict_domain(stem, AbstractSignal::bottom());
      stats.proved_no_violation = true;
      probe::stem(k, name, flight::kStemRefuted, 0);
      return stats;
    }
    if (ok0 != ok1) {
      // Necessary assignment: keep the surviving class and its propagation.
      ++stats.one_sided;
      probe::stem(k, name, flight::kStemOneSided, 0);
      cs.restrict_domain(stem, AbstractSignal::class_only(ok1));
      if (cs.reach_fixpoint() == ConstraintSystem::Status::kNoViolation) {
        stats.proved_no_violation = true;
        return stats;
      }
      continue;
    }
    // Both classes alive: D_X := D_X0 u D_X1 for nets narrowed in both
    // branches (a net untouched by a branch keeps its pre-split value there,
    // so only the intersection of the changed sets can narrow). The
    // restrictions are intersections, so their application order does not
    // affect the fixpoint that follows.
    std::size_t narrowed_here = 0;
    for (NetId net : changed0) {
      if (stamp1[net.index()] != stem_gen) continue;
      const AbstractSignal united =
          val0[net.index()].unite(val1[net.index()]);
      if (cs.restrict_domain(net, united)) {
        ++stats.domains_narrowed;
        ++narrowed_here;
      }
    }
    probe::stem(k, name, flight::kStemBoth, narrowed_here);
    if (cs.reach_fixpoint() == ConstraintSystem::Status::kNoViolation) {
      stats.proved_no_violation = true;
      return stats;
    }
  }
  return stats;
}

}  // namespace waveck
