// Struct-of-arrays storage for the per-net abstract-signal domains.
//
// The constraint system's variable store is four flat int64 planes — w0.lo,
// w0.hi, w1.lo, w1.hi — indexed by NetId, rather than one AbstractSignal
// per net, so the hot predicates below (carrier sweeps, implication skips)
// read one or two words instead of reassembling a signal. Gate evaluation
// loads and stores whole signals (get/set). Encoding is Time's raw sentinel
// form (waveform/soa_encoding.hpp); stored intervals are always canonical,
// so bitwise plane equality is semantic equality.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/ids.hpp"
#include "waveform/abstract_waveform.hpp"
#include "waveform/soa_encoding.hpp"

namespace waveck {

class SoaDomain {
 public:
  SoaDomain() = default;
  /// All nets start at top (every stabilising waveform possible).
  explicit SoaDomain(std::size_t nets) {
    for (int c = 0; c < 2; ++c) {
      lo_[c].assign(nets, soa::kNegInf);
      hi_[c].assign(nets, soa::kPosInf);
    }
    size_ = nets;
  }

  [[nodiscard]] std::size_t size() const { return size_; }

  // ----- whole-signal view -------------------------------------------------
  [[nodiscard]] AbstractSignal get(NetId n) const {
    const std::size_t i = n.index();
    return {soa::from_raw({lo_[0][i], hi_[0][i]}),
            soa::from_raw({lo_[1][i], hi_[1][i]})};
  }
  /// Stores `s`, canonicalising each class interval into the planes.
  void set(NetId n, const AbstractSignal& s) {
    const std::size_t i = n.index();
    for (int c = 0; c < 2; ++c) {
      const soa::RawInterval r = soa::to_raw(s.w[c]);
      lo_[c][i] = r.lo;
      hi_[c][i] = r.hi;
    }
  }

  // ----- predicates straight off the planes --------------------------------
  // Definitions match AbstractSignal's (tested for parity in
  // tests/soa_kernel_test.cpp); the point is skipping signal reassembly in
  // hot consumers (carrier sweeps, cache invalidation).
  [[nodiscard]] bool cls_empty(std::size_t n, int cls) const {
    return soa::is_empty(lo_[cls][n], hi_[cls][n]);
  }
  [[nodiscard]] bool is_bottom(std::size_t n) const {
    return cls_empty(n, 0) && cls_empty(n, 1);
  }
  [[nodiscard]] bool single_class(std::size_t n) const {
    return cls_empty(n, 0) != cls_empty(n, 1);
  }
  /// AbstractSignal::latest in raw encoding (-inf when bottom).
  [[nodiscard]] std::int64_t latest_raw(std::size_t n) const {
    const bool e0 = cls_empty(n, 0);
    const bool e1 = cls_empty(n, 1);
    if (e0 && e1) return soa::kNegInf;
    if (e0) return hi_[1][n];
    if (e1) return hi_[0][n];
    return soa::raw_max(hi_[0][n], hi_[1][n]);
  }
  /// AbstractSignal::has_transition_at_or_after without reassembly.
  [[nodiscard]] bool has_transition_at_or_after(std::size_t n, Time t) const {
    return !is_bottom(n) && latest_raw(n) >= t.raw();
  }

  /// Bytes held by the four planes (arena accounting; capacities).
  [[nodiscard]] std::size_t capacity_bytes() const {
    std::size_t b = 0;
    for (int c = 0; c < 2; ++c) {
      b += (lo_[c].capacity() + hi_[c].capacity()) * sizeof(std::int64_t);
    }
    return b;
  }

 private:
  std::vector<std::int64_t> lo_[2];
  std::vector<std::int64_t> hi_[2];
  std::size_t size_ = 0;
};

}  // namespace waveck
