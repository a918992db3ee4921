// TinyLFU frequency sketch (Einziger, Friedman & Manes).
//
// A 4-bit count-min sketch with periodic halving: record() bumps four
// saturating 4-bit counters chosen by independent hashes, estimate() reads
// their minimum, and once `sample_period` records have accumulated since
// the last halving every counter in the table is halved.  The halving is
// what makes the estimate a *recency-weighted* frequency — a block that was
// hot an epoch ago decays toward zero instead of squatting on its peak
// count forever — and the 4-bit saturation is what makes the whole sketch
// 16 counters per word: W distinct keys of history cost W/2 bytes, not a
// hash map.
//
// GeometryAtlas uses it for admission: a freshly built block displaces LRU
// victims only if its estimated frequency beats theirs, so a one-shot scan
// (every key seen once) can never flush a skewed working set whose keys
// have counts > 1.  The atlas passes the sample period per record, derived
// from its resident entry count (atlas.hpp), so the aging cadence follows
// the cache's capacity instead of a tuning knob.
//
// Deterministic: the four hash seeds are compile-time constants, so equal
// record sequences produce equal estimates on every run and platform.
#pragma once

#include <cstdint>
#include <vector>

namespace pls::radius {

class FrequencySketch {
 public:
  /// `counters` is rounded up to a power of two (>= 64).
  explicit FrequencySketch(std::size_t counters = std::size_t{1} << 14) {
    std::size_t n = 64;
    while (n < counters) n <<= 1;
    table_.assign(n / 16, 0);  // 16 4-bit counters per 64-bit word
    mask_ = n - 1;
  }

  /// One occurrence of `key_hash` (pre-mixed 64-bit hash of the key); halves
  /// the table once this is the `sample_period`-th record since the last
  /// halving.  The period trades retention (large) against adaptivity to
  /// workload shifts (small).
  void record(std::uint64_t key_hash, std::uint64_t sample_period) {
    const std::uint64_t h = spread(key_hash);
    for (unsigned i = 0; i < 4; ++i) {
      const std::size_t idx = index(h, i);
      const std::size_t word = idx >> 4;
      const unsigned slot = static_cast<unsigned>(idx & 15) * 4;
      if (((table_[word] >> slot) & 0xF) < 0xF)
        table_[word] += (std::uint64_t{1} << slot);
    }
    if (++samples_ >= sample_period) halve();
  }

  /// Recency-weighted frequency estimate: min of the four counters, in
  /// [0, 15].  Never under-counts recorded occurrences (count-min), may
  /// over-count through collisions.
  std::uint32_t estimate(std::uint64_t key_hash) const {
    const std::uint64_t h = spread(key_hash);
    std::uint32_t best = 0xF;
    for (unsigned i = 0; i < 4; ++i) {
      const std::size_t idx = index(h, i);
      const std::uint32_t c = static_cast<std::uint32_t>(
          (table_[idx >> 4] >> ((idx & 15) * 4)) & 0xF);
      if (c < best) best = c;
    }
    return best;
  }

  std::uint64_t halvings() const noexcept { return halvings_; }

 private:
  /// splitmix64 finalizer: decorrelates structured key hashes (epoch and
  /// block index live in adjacent bit ranges) before index derivation.
  static std::uint64_t spread(std::uint64_t x) noexcept {
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
  }

  std::size_t index(std::uint64_t h, unsigned i) const noexcept {
    static constexpr std::uint64_t kSeed[4] = {
        0xC3A5C85C97CB3127ull, 0xB492B66FBE98F273ull,
        0x9AE16A3B2F90404Full, 0xCBF29CE484222325ull};
    std::uint64_t v = (h + (h >> 32)) * kSeed[i];
    v += v >> 32;
    return static_cast<std::size_t>(v & mask_);
  }

  void halve() {
    for (std::uint64_t& w : table_) w = (w >> 1) & 0x7777777777777777ull;
    samples_ = 0;
    ++halvings_;
  }

  std::vector<std::uint64_t> table_;
  std::uint64_t mask_ = 0;
  std::uint64_t samples_ = 0;
  std::uint64_t halvings_ = 0;
};

}  // namespace pls::radius
