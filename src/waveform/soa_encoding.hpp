// Raw (sentinel-encoded) interval algebra for the SoA domain planes.
//
// The data-oriented constraint core stores every net's abstract signal as
// four int64 planes — w0.lo / w0.hi / w1.lo / w1.hi, indexed by NetId —
// using Time's sentinel encoding (kRawNegInf / kRawPosInf). This header
// holds the encoding and the few raw operations the planes' predicates
// need; gate evaluation itself runs on AbstractSignal (project_gate).
//
// Plane invariant: a stored interval is always *canonical* — either
// lo <= hi, or exactly the canonical empty (lo = +inf raw, hi = -inf raw).
// `to_raw` canonicalises, so bitwise plane equality coincides with
// LtInterval's semantic equality.
#pragma once

#include <cstdint>

#include "waveform/lt_interval.hpp"

namespace waveck::soa {

inline constexpr std::int64_t kNegInf = Time::kRawNegInf;
inline constexpr std::int64_t kPosInf = Time::kRawPosInf;

/// Canonical empty interval, as stored in the planes.
inline constexpr std::int64_t kEmptyLo = kPosInf;
inline constexpr std::int64_t kEmptyHi = kNegInf;

[[nodiscard]] constexpr bool is_empty(std::int64_t lo, std::int64_t hi) {
  return lo > hi;
}

/// Time::plus on the raw encoding: finite values shift, infinities stick.
[[nodiscard]] constexpr std::int64_t sat_add(std::int64_t v, std::int64_t d) {
  return (v == kNegInf || v == kPosInf) ? v : v + d;
}

[[nodiscard]] constexpr std::int64_t raw_max(std::int64_t a, std::int64_t b) {
  return a > b ? a : b;
}

/// A raw interval pair.
struct RawInterval {
  std::int64_t lo = kNegInf;
  std::int64_t hi = kPosInf;

  friend constexpr bool operator==(RawInterval a, RawInterval b) = default;
};

inline constexpr RawInterval kEmpty{kEmptyLo, kEmptyHi};

/// LtInterval::shift_forward: empty stays empty, bounds saturate.
[[nodiscard]] constexpr RawInterval shift_forward(RawInterval a,
                                                  std::int64_t dmin,
                                                  std::int64_t dmax) {
  if (is_empty(a.lo, a.hi)) return kEmpty;
  return {sat_add(a.lo, dmin), sat_add(a.hi, dmax)};
}

/// Round-trips with LtInterval. A stored (canonical) plane value converts
/// losslessly; to_raw canonicalises non-canonical empties on the way in.
[[nodiscard]] constexpr RawInterval to_raw(const LtInterval& i) {
  return i.is_empty() ? kEmpty : RawInterval{i.lmin.raw(), i.max.raw()};
}
[[nodiscard]] constexpr LtInterval from_raw(RawInterval r) {
  return {Time::from_raw(r.lo), Time::from_raw(r.hi)};
}

}  // namespace waveck::soa
