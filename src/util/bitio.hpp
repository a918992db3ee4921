// Bit-exact serialization for certificates.
//
// Proof size — the paper's complexity measure — is counted in *bits*, so all
// certificate encodings go through BitWriter/BitReader rather than through
// byte-oriented serialization.  The writer packs little-endian-within-byte
// (bit k of the stream lives in byte k/8 at position k%8), and the reader is
// total: reads past the end fail softly by returning std::nullopt, because a
// verifier must treat a malformed (adversarial) certificate as "reject", not
// as a crash.
//
// The kernels are byte-granular: write_uint ORs up to 8 bits per step into a
// buffer it sizes once per call, write_bits appends whole bytes (a plain
// append when the writer is byte-aligned, a shift-merge otherwise), and
// read_uint extracts up to 8 bits per step.  Their contract:
//   * writer output's padding bits (past bit_size() in the last byte) are 0
//     — BitString ==/hash and the wire's canonical zero pad rely on it;
//   * a kernel never reads a source byte at or past ceil(nbits/8), and
//     write_bits masks the source's trailing partial byte, because wire
//     certificates alias the request frame (their padding may be anything);
//   * reads fail as described on BitReader below.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "util/assert.hpp"

namespace pls::util {

class BitWriter {
 public:
  BitWriter() = default;

  /// Append the low `width` bits of `value` (LSB first). width in [0,64].
  void write_uint(std::uint64_t value, unsigned width);

  /// Append a single bit.
  void write_bit(bool bit) { write_uint(bit ? 1 : 0, 1); }

  /// LEB128-style varint: 7 payload bits + 1 continuation bit per group.
  void write_varint(std::uint64_t value);

  /// Append another bit string verbatim.
  void write_bits(const std::vector<std::uint8_t>& bytes, std::size_t nbits);

  /// Same, from raw bit storage (BitString::data() layout).
  void write_bits(const std::uint8_t* bytes, std::size_t nbits);

  std::size_t bit_size() const noexcept { return nbits_; }
  const std::vector<std::uint8_t>& bytes() const noexcept { return bytes_; }

  /// Move the accumulated buffer out; the writer is reset.
  std::vector<std::uint8_t> take_bytes() noexcept;

 private:
  std::vector<std::uint8_t> bytes_;
  std::size_t nbits_ = 0;
};

// Every read_* checks the remaining bit count BEFORE touching storage and
// fails closed: a failed read returns nullopt, does not advance the cursor,
// and latches the sticky failed() flag.  Once failed, every subsequent read
// also returns nullopt, so a decoder that forgets to check one intermediate
// result still cannot be steered by bits past the end — it can only reject.
// Varint decoding is canonical: overlong encodings (group bits that would
// be discarded above bit 63) AND non-minimal ones (a redundant zero final
// group, which decodes identically to the shorter encoding) are rejected,
// so on the wire path two distinct byte strings never decode to the same
// value.
class BitReader {
 public:
  BitReader(const std::uint8_t* data, std::size_t nbits) noexcept
      : data_(data), nbits_(nbits) {
    PLS_ASSERT(nbits == 0 || data != nullptr);
  }
  BitReader(const std::vector<std::uint8_t>& bytes, std::size_t nbits) noexcept
      : BitReader(bytes.data(), nbits) {
    PLS_ASSERT(nbits <= bytes.size() * 8);
  }

  /// Read `width` bits as an unsigned value; nullopt if not enough bits left.
  std::optional<std::uint64_t> read_uint(unsigned width) noexcept;

  std::optional<bool> read_bit() noexcept;

  /// LEB128-style varint; nullopt on truncation, on overlong encodings
  /// that would discard nonzero bits above bit 63, and on non-minimal
  /// encodings ending in a redundant zero group (canonical decoding).
  std::optional<std::uint64_t> read_varint() noexcept;

  std::size_t remaining() const noexcept { return nbits_ - pos_; }
  bool exhausted() const noexcept { return pos_ == nbits_; }
  std::size_t position() const noexcept { return pos_; }

  /// Sticky: true once any read has failed.  ok() is the single check a
  /// multi-field decoder needs at the end of a parse.
  bool failed() const noexcept { return failed_; }
  bool ok() const noexcept { return !failed_; }

 private:
  const std::uint8_t* data_;
  std::size_t nbits_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

/// Number of bits needed to represent `value` (0 -> 1, so every value has a
/// nonzero fixed width when used as a field size).
unsigned bit_width_for(std::uint64_t value) noexcept;

}  // namespace pls::util
