// Flat bit plane: one bit per index, 64 per word.
//
// The data-oriented constraint core keeps its per-net / per-gate flags
// (in-queue, changed-since-drain, carrier marks) as bit planes instead of
// byte vectors: an ISCAS-sized circuit's whole flag plane fits in a few
// cache lines, and the level sweeps walk set bits a word at a time
// (`for_each_set_in_range`) instead of testing gates one by one.
#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace waveck {

class BitPlane {
 public:
  BitPlane() = default;
  explicit BitPlane(std::size_t n) { assign(n); }

  /// Resizes to `n` bits, all clear.
  void assign(std::size_t n) {
    size_ = n;
    words_.assign((n + 63) / 64, 0);
  }

  [[nodiscard]] std::size_t size() const { return size_; }

  [[nodiscard]] bool test(std::size_t i) const {
    assert(i < size_);
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }
  void set(std::size_t i) {
    assert(i < size_);
    words_[i >> 6] |= std::uint64_t{1} << (i & 63);
  }
  void reset(std::size_t i) {
    assert(i < size_);
    words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }
  /// Sets bit `i`; returns its previous value (one read-modify-write for
  /// the "schedule if not already queued" pattern).
  bool test_set(std::size_t i) {
    assert(i < size_);
    std::uint64_t& w = words_[i >> 6];
    const std::uint64_t m = std::uint64_t{1} << (i & 63);
    const bool was = (w & m) != 0;
    w |= m;
    return was;
  }

  /// Clears every bit in [lo, hi).
  void clear_range(std::size_t lo, std::size_t hi) {
    assert(lo <= hi && hi <= size_);
    if (lo >= hi) return;
    const std::size_t wl = lo >> 6;
    const std::size_t wh = (hi - 1) >> 6;
    const std::uint64_t head = ~std::uint64_t{0} << (lo & 63);
    const std::uint64_t tail = ~std::uint64_t{0} >> (63 - ((hi - 1) & 63));
    if (wl == wh) {
      words_[wl] &= ~(head & tail);
      return;
    }
    words_[wl] &= ~head;
    for (std::size_t w = wl + 1; w < wh; ++w) words_[w] = 0;
    words_[wh] &= ~tail;
  }

  /// Calls `f(i)` for every set bit in [lo, hi), ascending. The callback
  /// must not mutate this plane.
  template <class F>
  void for_each_set_in_range(std::size_t lo, std::size_t hi, F&& f) const {
    assert(lo <= hi && hi <= size_);
    if (lo >= hi) return;
    const std::size_t wl = lo >> 6;
    const std::size_t wh = (hi - 1) >> 6;
    for (std::size_t wi = wl; wi <= wh; ++wi) {
      std::uint64_t w = words_[wi];
      if (wi == wl) w &= ~std::uint64_t{0} << (lo & 63);
      if (wi == wh) w &= ~std::uint64_t{0} >> (63 - ((hi - 1) & 63));
      while (w != 0) {
        const int b = std::countr_zero(w);
        f(wi * 64 + static_cast<std::size_t>(b));
        w &= w - 1;
      }
    }
  }

  /// Bytes held by the word array (arena accounting).
  [[nodiscard]] std::size_t capacity_bytes() const {
    return words_.capacity() * sizeof(std::uint64_t);
  }

 private:
  std::vector<std::uint64_t> words_;
  std::size_t size_ = 0;
};

}  // namespace waveck
