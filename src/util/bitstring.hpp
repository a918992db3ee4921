// Immutable-ish bit string value type.
//
// Node states and certificates are both binary strings in the paper's model;
// BitString is the common value type (hashable, comparable) with bit-exact
// length accounting.  Construction goes through BitWriter; consumption goes
// through BitReader, which fails softly on truncated/garbage input (an
// adversarial certificate must produce "reject", never undefined behavior).
//
// Storage comes in two modes:
//
//   * OWNED (the default): the string holds its bytes in a vector, like any
//     value type.  Everything constructed through BitWriter is owned.
//   * ALIASING (BitString::aliasing): the string is a non-owning view over
//     caller-managed memory — the zero-copy ingestion mode of the serving
//     tier (serve/wire.hpp), where certificates alias the request buffer
//     instead of being copied out of it.  The caller owns the lifetime: the
//     aliased bytes must stay valid and unmodified for as long as ANY copy
//     of the string is read (copies alias the same memory; they never
//     silently materialize).  materialize() produces an owned deep copy
//     when the buffer is about to go away.
//
// All readers (reader(), operator==, hash, prefix) go through data(), so the
// two modes are observably identical bit-for-bit; bytes() — the owned
// vector — is only for owned strings (write-side plumbing).
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "util/assert.hpp"
#include "util/bitio.hpp"

namespace pls::util {

class BitString {
 public:
  BitString() = default;

  BitString(std::vector<std::uint8_t> bytes, std::size_t nbits)
      : owned_(std::move(bytes)), nbits_(nbits) {
    PLS_REQUIRE(nbits_ <= owned_.size() * 8);
    data_ = owned_.data();
  }

  /// Non-owning view over `nbits` bits at `data` (little-endian within each
  /// byte, same layout BitWriter produces).  The caller guarantees the
  /// pointed-to bytes outlive every copy of the returned string and stay
  /// bit-stable while any of them is read — the zero-copy wire-ingestion
  /// contract (serve::Server holds the request frame for exactly this).
  static BitString aliasing(const std::uint8_t* data, std::size_t nbits) {
    PLS_REQUIRE(nbits == 0 || data != nullptr);
    BitString s;
    s.data_ = data;
    s.nbits_ = nbits;
    s.aliased_ = true;
    return s;
  }

  // Copies and moves must re-point data_ at the destination's own vector in
  // owned mode (the default member-wise copy would alias the SOURCE's
  // buffer); aliasing strings keep aliasing the same external memory.
  BitString(const BitString& other)
      : owned_(other.owned_), nbits_(other.nbits_), aliased_(other.aliased_) {
    data_ = aliased_ ? other.data_ : owned_.data();
  }
  BitString(BitString&& other) noexcept
      : owned_(std::move(other.owned_)),
        nbits_(other.nbits_),
        aliased_(other.aliased_) {
    data_ = aliased_ ? other.data_ : owned_.data();
    other.owned_.clear();
    other.data_ = nullptr;
    other.nbits_ = 0;
    other.aliased_ = false;
  }
  BitString& operator=(const BitString& other) {
    if (this != &other) {
      owned_ = other.owned_;
      nbits_ = other.nbits_;
      aliased_ = other.aliased_;
      data_ = aliased_ ? other.data_ : owned_.data();
    }
    return *this;
  }
  BitString& operator=(BitString&& other) noexcept {
    if (this != &other) {
      owned_ = std::move(other.owned_);
      nbits_ = other.nbits_;
      aliased_ = other.aliased_;
      data_ = aliased_ ? other.data_ : owned_.data();
      other.owned_.clear();
      other.data_ = nullptr;
      other.nbits_ = 0;
      other.aliased_ = false;
    }
    return *this;
  }

  /// Consume a writer's buffer.
  static BitString from_writer(BitWriter&& w) {
    const std::size_t nbits = w.bit_size();
    return BitString(w.take_bytes(), nbits);
  }

  /// Single fixed-width value convenience.
  static BitString of_uint(std::uint64_t value, unsigned width) {
    BitWriter w;
    w.write_uint(value, width);
    return from_writer(std::move(w));
  }

  BitReader reader() const noexcept { return BitReader(data_, nbits_); }

  std::size_t bit_size() const noexcept { return nbits_; }
  bool empty() const noexcept { return nbits_ == 0; }

  /// Raw little-endian-within-byte bit storage: ceil(bit_size()/8) readable
  /// bytes (null only when empty).  Valid in both modes — the read-side
  /// accessor everything bit-level goes through.
  const std::uint8_t* data() const noexcept { return data_; }

  /// Whether this string aliases caller-managed memory (see aliasing()).
  bool is_aliasing() const noexcept { return aliased_; }

  /// The owned byte vector; owned strings only (an aliasing string has no
  /// vector to hand out — use data()/materialize()).
  const std::vector<std::uint8_t>& bytes() const {
    PLS_REQUIRE(!aliased_);
    return owned_;
  }

  /// An owned deep copy (identity for already-owned strings): the escape
  /// hatch when an aliased buffer is about to be released.
  BitString materialize() const {
    if (!aliased_) return *this;
    std::vector<std::uint8_t> copy(data_, data_ + (nbits_ + 7) / 8);
    return BitString(std::move(copy), nbits_);
  }

  /// First `nbits` bits (for truncation/masking experiments).
  BitString prefix(std::size_t nbits) const {
    if (nbits >= nbits_) return materialize();
    BitWriter w;
    w.write_bits(data_, nbits);
    return from_writer(std::move(w));
  }

  friend bool operator==(const BitString& a, const BitString& b) {
    if (a.nbits_ != b.nbits_) return false;
    const std::size_t full = a.nbits_ / 8;
    for (std::size_t i = 0; i < full; ++i)
      if (a.data_[i] != b.data_[i]) return false;
    const unsigned rest = static_cast<unsigned>(a.nbits_ % 8);
    if (rest != 0) {
      const std::uint8_t mask = static_cast<std::uint8_t>((1u << rest) - 1);
      if ((a.data_[full] & mask) != (b.data_[full] & mask)) return false;
    }
    return true;
  }
  friend bool operator!=(const BitString& a, const BitString& b) {
    return !(a == b);
  }

  std::size_t hash() const noexcept {
    std::size_t h = std::hash<std::size_t>{}(nbits_);
    const std::size_t full = nbits_ / 8;
    for (std::size_t i = 0; i < full; ++i)
      h = h * 1099511628211ull + data_[i];
    const unsigned rest = static_cast<unsigned>(nbits_ % 8);
    if (rest != 0)
      h = h * 1099511628211ull +
          (data_[full] & static_cast<std::uint8_t>((1u << rest) - 1));
    return h;
  }

 private:
  std::vector<std::uint8_t> owned_;
  const std::uint8_t* data_ = nullptr;  ///< owned_.data() or external memory
  std::size_t nbits_ = 0;
  bool aliased_ = false;
};

struct BitStringHash {
  std::size_t operator()(const BitString& s) const noexcept { return s.hash(); }
};

}  // namespace pls::util
