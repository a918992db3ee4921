// Wire format of spread certificates, shared between FragmentSpreadScheme
// (the honest marker/decoder) and the splice attack suite (splice.hpp),
// which must be able to parse, tamper with, and re-encode certificates
// bit-exactly.
//
// Layout (parse order):
//   [5 bits: k_r-1] [1 bit: named] [bit_width(k_r-1) bits: residue j]
//   [varint: region id, only when named] [varint: suffix bit-length]
//   [suffix bits] [remaining bits: chunk j of X_r]
//
// The region id is the raw id of the region's landmark node.  A region with
// no boundary edge is a whole connected component and needs no name: its
// certificates clear the `named` bit and spell no id, so the whole-component
// partition costs exactly the 6 header bits of a single global prefix.
#pragma once

#include <algorithm>
#include <optional>
#include <span>
#include <vector>

#include "pls/certificate.hpp"
#include "util/bitstring.hpp"

namespace pls::radius::detail {

inline constexpr unsigned kChunkCountField = 5;  // k-1 fits in 5 bits: [1, 32]
/// The fixed header: the chunk-count field plus the `named` tag bit.
inline constexpr unsigned kHeaderBits = kChunkCountField + 1;

/// Bit i of a BitString (stream order: bit i lives in byte i/8, position i%8).
inline bool bit_at(const util::BitString& s, std::size_t i) {
  return (s.data()[i / 8] >> (i % 8)) & 1;
}

/// Length of the longest common prefix of two bit strings.
inline std::size_t lcp_bits(const util::BitString& a, const util::BitString& b) {
  const std::size_t limit = std::min(a.bit_size(), b.bit_size());
  std::size_t i = 0;
  // Whole equal bytes first, then the mismatching byte bit by bit.
  while (i + 8 <= limit && a.data()[i / 8] == b.data()[i / 8]) i += 8;
  while (i < limit && bit_at(a, i) == bit_at(b, i)) ++i;
  return i;
}

/// Encoded size of a varint (8 bits per 7-bit payload group).
inline std::size_t varint_bits(std::uint64_t value) {
  return 8 * ((std::max<unsigned>(util::bit_width_for(value), 1) + 6) / 7);
}

/// Reads exactly `nbits` bits; nullopt when the reader runs dry.
inline std::optional<util::BitString> read_bits(util::BitReader& r,
                                                std::size_t nbits) {
  if (r.remaining() < nbits) return std::nullopt;
  util::BitWriter w;
  std::size_t left = nbits;
  while (left > 0) {
    const unsigned take = static_cast<unsigned>(std::min<std::size_t>(left, 64));
    const auto chunk = r.read_uint(take);
    if (!chunk) return std::nullopt;
    w.write_uint(*chunk, take);
    left -= take;
  }
  return util::BitString::from_writer(std::move(w));
}

/// Bits [from, from+len) of `s` as a fresh bit string.
inline util::BitString slice_bits(const util::BitString& s, std::size_t from,
                                  std::size_t len) {
  PLS_ASSERT(from + len <= s.bit_size());
  util::BitWriter w;
  for (std::size_t i = 0; i < len; ++i) w.write_bit(bit_at(s, from + i));
  return util::BitString::from_writer(std::move(w));
}

/// Number of indices i < total with i % k == j.
inline std::size_t chunk_size(std::size_t total, std::size_t k, std::size_t j) {
  return total > j ? (total - 1 - j) / k + 1 : 0;
}

/// The marker's sharding step, shared by the spread marker and the splice
/// suite: cuts X into k interleaved chunks, bit i of X going to chunk i%k.
/// The exact inverse of reassemble_chunks below.
inline std::vector<util::BitString> shard_chunks(const util::BitString& x,
                                                 std::size_t k) {
  std::vector<util::BitWriter> writers(k);
  for (std::size_t i = 0; i < x.bit_size(); ++i)
    writers[i % k].write_bit(bit_at(x, i));
  std::vector<util::BitString> chunks;
  chunks.reserve(k);
  for (std::size_t j = 0; j < k; ++j)
    chunks.push_back(util::BitString::from_writer(std::move(writers[j])));
  return chunks;
}

/// The verifier's reassembly step, shared by the decoder and the splice
/// suite: checks that the k chunk lengths interleave to a consistent total
/// (nullopt otherwise — a splice of chunks from prefixes of different
/// lengths) and stitches the prefix back together, bit i of X being bit i/k
/// of chunk i%k.
inline std::optional<util::BitString> reassemble_chunks(
    std::span<const util::BitString* const> chunks) {
  const std::size_t k = chunks.size();
  std::size_t total = 0;
  for (const util::BitString* c : chunks) total += c->bit_size();
  for (std::size_t j = 0; j < k; ++j)
    if (chunks[j]->bit_size() != chunk_size(total, k, j)) return std::nullopt;
  // Bit b of chunk j is bit b*k + j of X; OR each set bit into place.
  std::vector<std::uint8_t> bytes((total + 7) / 8);
  for (std::size_t j = 0; j < k; ++j) {
    const util::BitString& c = *chunks[j];
    for (std::size_t b = 0, i = j; b < c.bit_size(); ++b, i += k)
      if (bit_at(c, b))
        bytes[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
  }
  return util::BitString(std::move(bytes), total);
}

/// One parsed spread certificate.
struct FragmentWire {
  std::uint64_t k = 0;
  std::uint64_t residue = 0;
  bool named = false;        ///< false: a whole-component region, no id
  std::uint64_t region = 0;  ///< raw id of the region's landmark (if named)
  util::BitString suffix;
  util::BitString chunk;
};

inline std::optional<FragmentWire> parse_fragment_wire(
    const local::Certificate& c) {
  util::BitReader r = c.reader();
  FragmentWire p;
  const auto k_minus_1 = r.read_uint(kChunkCountField);
  const auto named = r.read_bit();
  if (!k_minus_1 || !named) return std::nullopt;
  p.k = *k_minus_1 + 1;
  p.named = *named;
  const auto residue = r.read_uint(util::bit_width_for(p.k - 1));
  if (!residue || *residue >= p.k) return std::nullopt;
  p.residue = *residue;
  if (p.named) {
    const auto region = r.read_varint();
    if (!region) return std::nullopt;
    p.region = *region;
  }
  const auto suffix_len = r.read_varint();
  if (!suffix_len) return std::nullopt;
  auto suffix = read_bits(r, *suffix_len);
  if (!suffix) return std::nullopt;
  p.suffix = std::move(*suffix);
  auto chunk = read_bits(r, r.remaining());
  PLS_ASSERT(chunk.has_value());
  p.chunk = std::move(*chunk);
  return p;
}

/// Re-encodes a (possibly tampered) parsed certificate; an unnamed wire
/// drops its region id.
inline local::Certificate encode_fragment_wire(const FragmentWire& p) {
  PLS_ASSERT(p.k >= 1 && p.k <= (std::uint64_t{1} << kChunkCountField));
  util::BitWriter w;
  w.write_uint(p.k - 1, kChunkCountField);
  w.write_bit(p.named);
  w.write_uint(p.residue, util::bit_width_for(p.k - 1));
  if (p.named) w.write_varint(p.region);
  w.write_varint(p.suffix.bit_size());
  w.write_bits(p.suffix.bytes(), p.suffix.bit_size());
  w.write_bits(p.chunk.bytes(), p.chunk.bit_size());
  return local::Certificate::from_writer(std::move(w));
}

}  // namespace pls::radius::detail
