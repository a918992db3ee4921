#include "util/bitio.hpp"

#include <bit>

namespace pls::util {

void BitWriter::write_uint(std::uint64_t value, unsigned width) {
  PLS_REQUIRE(width <= 64);
  if (width == 0) return;
  // Only the low `width` bits may land, so the last byte's padding stays 0.
  if (width < 64) value &= (std::uint64_t{1} << width) - 1;
  std::size_t byte = nbits_ / 8;
  const unsigned offset = static_cast<unsigned>(nbits_ % 8);
  nbits_ += width;
  bytes_.resize((nbits_ + 7) / 8);
  // The first step fills the partial byte's free high bits; every later
  // byte is fresh (zero), so it takes the next 8 bits outright.
  bytes_[byte++] |= static_cast<std::uint8_t>(value << offset);
  value >>= 8 - offset;
  for (; byte < bytes_.size(); ++byte, value >>= 8)
    bytes_[byte] = static_cast<std::uint8_t>(value);
}

void BitWriter::write_varint(std::uint64_t value) {
  do {
    const std::uint64_t group = value & 0x7Fu;
    value >>= 7;
    // 7 payload bits, then the continuation bit: one 8-bit field.
    write_uint(group | (value != 0 ? 0x80u : 0u), 8);
  } while (value != 0);
}

void BitWriter::write_bits(const std::vector<std::uint8_t>& bytes,
                           std::size_t nbits) {
  PLS_REQUIRE(nbits <= bytes.size() * 8);
  write_bits(bytes.data(), nbits);
}

void BitWriter::write_bits(const std::uint8_t* bytes, std::size_t nbits) {
  PLS_REQUIRE(nbits == 0 || bytes != nullptr);
  if (nbits == 0) return;
  const std::size_t full = nbits / 8;
  const unsigned rest = static_cast<unsigned>(nbits % 8);
  // The source's trailing partial byte is masked (its padding bits may be
  // anything, e.g. an aliased frame), and no byte at or past ceil(nbits/8)
  // is read.
  const std::uint8_t tail = static_cast<std::uint8_t>(
      rest != 0 ? bytes[full] & ((1u << rest) - 1) : 0);
  const unsigned offset = static_cast<unsigned>(nbits_ % 8);
  nbits_ += nbits;
  if (offset == 0) {
    bytes_.insert(bytes_.end(), bytes, bytes + full);
    if (rest != 0) bytes_.push_back(tail);
    return;
  }
  // Unaligned: each source byte splits across the current partial byte's
  // high bits and the low bits of the next (fresh) byte.
  std::size_t at = bytes_.size() - 1;
  bytes_.resize((nbits_ + 7) / 8);
  std::uint8_t* out = bytes_.data();
  for (std::size_t i = 0; i < full; ++i, ++at) {
    out[at] |= static_cast<std::uint8_t>(bytes[i] << offset);
    out[at + 1] = static_cast<std::uint8_t>(bytes[i] >> (8 - offset));
  }
  if (rest != 0) {
    out[at] |= static_cast<std::uint8_t>(tail << offset);
    if (offset + rest > 8)
      out[at + 1] = static_cast<std::uint8_t>(tail >> (8 - offset));
  }
}

std::vector<std::uint8_t> BitWriter::take_bytes() noexcept {
  nbits_ = 0;
  return std::move(bytes_);
}

std::optional<std::uint64_t> BitReader::read_uint(unsigned width) noexcept {
  if (failed_ || width > 64 || remaining() < width) {
    failed_ = true;
    return std::nullopt;
  }
  if (width == 0) return 0;
  // Bytes pos_/8 .. (pos_+width-1)/8: every one is inside ceil(nbits_/8).
  const std::uint8_t* byte = data_ + pos_ / 8;
  const unsigned offset = static_cast<unsigned>(pos_ % 8);
  std::uint64_t value = *byte++ >> offset;
  for (unsigned got = 8 - offset; got < width; got += 8)
    value |= std::uint64_t{*byte++} << got;
  pos_ += width;
  return width < 64 ? value & ((std::uint64_t{1} << width) - 1) : value;
}

std::optional<bool> BitReader::read_bit() noexcept {
  auto v = read_uint(1);
  if (!v) return std::nullopt;
  return *v != 0;
}

std::optional<std::uint64_t> BitReader::read_varint() noexcept {
  const std::size_t start = pos_;
  std::uint64_t value = 0;
  unsigned shift = 0;
  for (;;) {
    // One 8-bit field per group: 7 payload bits, then the continuation bit.
    const auto field = read_uint(8);
    const std::uint64_t group = field.value_or(0) & 0x7Fu;
    const bool cont = (field.value_or(0) >> 7) != 0;
    if (!field || shift >= 64 ||
        (shift > 57 && (group >> (64 - shift)) != 0) ||
        (!cont && shift > 0 && group == 0)) {
      // Truncated; an overlong encoding (a group past bit 63, or group bits
      // that would shift out above bit 63 — shift 63 keeps only bit 0); or
      // a non-minimal one (a zero FINAL group after the first contributes
      // nothing and would alias the shorter encoding of the same value).
      pos_ = start;
      failed_ = true;
      return std::nullopt;
    }
    value |= (group << shift);
    if (!cont) return value;
    shift += 7;
  }
}

unsigned bit_width_for(std::uint64_t value) noexcept {
  return value == 0 ? 1u : static_cast<unsigned>(std::bit_width(value));
}

}  // namespace pls::util
