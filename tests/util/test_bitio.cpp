#include "util/bitio.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "util/bitstring.hpp"
#include "util/rng.hpp"

namespace pls::util {
namespace {

TEST(BitIo, EmptyWriterHasNoBits) {
  BitWriter w;
  EXPECT_EQ(w.bit_size(), 0u);
  EXPECT_TRUE(w.bytes().empty());
}

TEST(BitIo, SingleBitRoundTrip) {
  BitWriter w;
  w.write_bit(true);
  w.write_bit(false);
  w.write_bit(true);
  BitReader r(w.bytes(), w.bit_size());
  EXPECT_EQ(r.read_bit(), std::optional<bool>(true));
  EXPECT_EQ(r.read_bit(), std::optional<bool>(false));
  EXPECT_EQ(r.read_bit(), std::optional<bool>(true));
  EXPECT_TRUE(r.exhausted());
}

TEST(BitIo, FixedWidthRoundTrip) {
  BitWriter w;
  w.write_uint(0b1011, 4);
  w.write_uint(0xFFFF, 16);
  w.write_uint(0, 1);
  BitReader r(w.bytes(), w.bit_size());
  EXPECT_EQ(r.read_uint(4), std::optional<std::uint64_t>(0b1011));
  EXPECT_EQ(r.read_uint(16), std::optional<std::uint64_t>(0xFFFF));
  EXPECT_EQ(r.read_uint(1), std::optional<std::uint64_t>(0));
  EXPECT_TRUE(r.exhausted());
}

TEST(BitIo, WidthZeroWritesNothing) {
  BitWriter w;
  w.write_uint(123, 0);
  EXPECT_EQ(w.bit_size(), 0u);
}

TEST(BitIo, SixtyFourBitValue) {
  const std::uint64_t v = 0xDEADBEEFCAFEF00Dull;
  BitWriter w;
  w.write_uint(v, 64);
  BitReader r(w.bytes(), w.bit_size());
  EXPECT_EQ(r.read_uint(64), std::optional<std::uint64_t>(v));
}

TEST(BitIo, ReadPastEndFailsSoftly) {
  BitWriter w;
  w.write_uint(3, 2);
  BitReader r(w.bytes(), w.bit_size());
  EXPECT_EQ(r.read_uint(3), std::nullopt);  // only 2 bits available
  // A failed wide read does not consume anything usable; the reader is safe.
  BitReader r2(w.bytes(), w.bit_size());
  EXPECT_TRUE(r2.read_uint(2).has_value());
  EXPECT_EQ(r2.read_bit(), std::nullopt);
}

TEST(BitIo, ReaderTracksRemaining) {
  BitWriter w;
  w.write_uint(0, 10);
  BitReader r(w.bytes(), w.bit_size());
  EXPECT_EQ(r.remaining(), 10u);
  ASSERT_TRUE(r.read_uint(4).has_value());
  EXPECT_EQ(r.remaining(), 6u);
  EXPECT_EQ(r.position(), 4u);
}

class VarintRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VarintRoundTrip, Value) {
  BitWriter w;
  w.write_varint(GetParam());
  BitReader r(w.bytes(), w.bit_size());
  EXPECT_EQ(r.read_varint(), std::optional<std::uint64_t>(GetParam()));
  EXPECT_TRUE(r.exhausted());
}

INSTANTIATE_TEST_SUITE_P(
    Values, VarintRoundTrip,
    ::testing::Values(0ull, 1ull, 2ull, 100ull, 127ull, 128ull, 129ull,
                      16383ull, 16384ull, 1u << 20, (1ull << 40) + 17,
                      std::uint64_t(-1)));

TEST(BitIo, VarintSizeIsEightBitsPerGroup) {
  BitWriter w;
  w.write_varint(127);
  EXPECT_EQ(w.bit_size(), 8u);
  BitWriter w2;
  w2.write_varint(128);
  EXPECT_EQ(w2.bit_size(), 16u);
}

TEST(BitIo, TruncatedVarintFails) {
  BitWriter w;
  w.write_varint(300);  // two groups
  BitReader r(w.bytes(), 8);  // cut off the second group
  EXPECT_EQ(r.read_varint(), std::nullopt);
}

TEST(BitIo, InterleavedValuesKeepAlignment) {
  BitWriter w;
  w.write_bit(true);
  w.write_varint(12345);
  w.write_uint(0b101, 3);
  w.write_varint(7);
  BitReader r(w.bytes(), w.bit_size());
  EXPECT_EQ(r.read_bit(), std::optional<bool>(true));
  EXPECT_EQ(r.read_varint(), std::optional<std::uint64_t>(12345));
  EXPECT_EQ(r.read_uint(3), std::optional<std::uint64_t>(0b101));
  EXPECT_EQ(r.read_varint(), std::optional<std::uint64_t>(7));
  EXPECT_TRUE(r.exhausted());
}

TEST(BitIo, WriteBitsAppendsVerbatim) {
  BitWriter inner;
  inner.write_uint(0b110101, 6);
  BitWriter outer;
  outer.write_bit(false);
  outer.write_bits(inner.bytes(), inner.bit_size());
  BitReader r(outer.bytes(), outer.bit_size());
  ASSERT_TRUE(r.read_bit().has_value());
  EXPECT_EQ(r.read_uint(6), std::optional<std::uint64_t>(0b110101));
}

TEST(BitIo, TakeBytesResetsWriter) {
  BitWriter w;
  w.write_uint(0xAB, 8);
  const auto bytes = w.take_bytes();
  EXPECT_EQ(bytes.size(), 1u);
  EXPECT_EQ(w.bit_size(), 0u);
  w.write_bit(true);
  EXPECT_EQ(w.bit_size(), 1u);
}

TEST(BitIo, BitWidthFor) {
  EXPECT_EQ(bit_width_for(0), 1u);
  EXPECT_EQ(bit_width_for(1), 1u);
  EXPECT_EQ(bit_width_for(2), 2u);
  EXPECT_EQ(bit_width_for(3), 2u);
  EXPECT_EQ(bit_width_for(4), 3u);
  EXPECT_EQ(bit_width_for(255), 8u);
  EXPECT_EQ(bit_width_for(256), 9u);
  EXPECT_EQ(bit_width_for(std::uint64_t(-1)), 64u);
}

TEST(BitIo, WidthOver64Throws) {
  BitWriter w;
  EXPECT_THROW(w.write_uint(0, 65), std::logic_error);
}

// Appends one raw varint group: 7 value bits + a continuation bit.  The
// writer below is how an ADVERSARY spells varints — write_varint itself
// can't produce the overlong shapes these tests must reject.
void raw_group(BitWriter& w, std::uint64_t bits7, bool cont) {
  w.write_uint(bits7, 7);
  w.write_bit(cont);
}

TEST(BitIo, TenGroupVarintCarriesExactlyOneTopBit) {
  // Nine full groups cover bits 0..62; the tenth sits at shift 63, where
  // only its lowest bit is representable.  Group value 1 is the canonical
  // encoding of UINT64_MAX's top bit and must decode.
  BitWriter w;
  for (int g = 0; g < 9; ++g) raw_group(w, 0x7F, true);
  raw_group(w, 0x01, false);
  BitReader r(w.bytes(), w.bit_size());
  EXPECT_EQ(r.read_varint(),
            std::optional<std::uint64_t>(std::uint64_t(-1)));
  EXPECT_TRUE(r.exhausted());
}

TEST(BitIo, OverlongVarintIsRejectedNotAliased) {
  // Same ten groups, but the final group holds a bit that would shift past
  // bit 63.  The pre-hardening reader silently dropped it — aliasing this
  // encoding onto a smaller value; it must fail closed instead.
  BitWriter w;
  for (int g = 0; g < 9; ++g) raw_group(w, 0x7F, true);
  raw_group(w, 0x02, false);
  BitReader r(w.bytes(), w.bit_size());
  EXPECT_EQ(r.read_varint(), std::nullopt);
  EXPECT_TRUE(r.failed());
  EXPECT_EQ(r.position(), 0u);  // the failed read consumed nothing
}

TEST(BitIo, NonMinimalVarintIsRejectedNotAliased) {
  // [group=5,cont=1][group=0,cont=0] decodes to the same 5 as the single-
  // group encoding — two distinct byte strings, one value.  Wire varints
  // are canonical, so the redundant form must fail closed.
  BitWriter w;
  raw_group(w, 0x05, true);
  raw_group(w, 0x00, false);
  BitReader r(w.bytes(), w.bit_size());
  EXPECT_EQ(r.read_varint(), std::nullopt);
  EXPECT_TRUE(r.failed());
  EXPECT_EQ(r.position(), 0u);

  // Redundantly-encoded zero ([0,cont=1][0,cont=0]) is rejected the same
  // way...
  BitWriter wz;
  raw_group(wz, 0x00, true);
  raw_group(wz, 0x00, false);
  BitReader rz(wz.bytes(), wz.bit_size());
  EXPECT_EQ(rz.read_varint(), std::nullopt);
  EXPECT_TRUE(rz.failed());

  // ...while zero's one canonical encoding — the single zero group — still
  // decodes.
  BitWriter z;
  z.write_varint(0);
  BitReader rc(z.bytes(), z.bit_size());
  EXPECT_EQ(rc.read_varint(), std::optional<std::uint64_t>(0));
  EXPECT_TRUE(rc.exhausted());
}

TEST(BitIo, ElevenGroupVarintIsRejected) {
  BitWriter w;
  for (int g = 0; g < 10; ++g) raw_group(w, 0x01, true);
  raw_group(w, 0x00, false);
  BitReader r(w.bytes(), w.bit_size());
  EXPECT_EQ(r.read_varint(), std::nullopt);
  EXPECT_TRUE(r.failed());
}

TEST(BitIo, FailureIsStickyAndConsumesNothing) {
  BitWriter w;
  w.write_uint(0b1011, 4);
  BitReader r(w.bytes(), w.bit_size());
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.read_uint(8), std::nullopt);  // only 4 bits available
  EXPECT_TRUE(r.failed());
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.position(), 0u);
  // Sticky: the 4-bit read WOULD fit, but a reader that has failed once
  // answers nothing — a decoder can't resynchronize on attacker-controlled
  // input by accident.
  EXPECT_EQ(r.read_uint(4), std::nullopt);
  EXPECT_EQ(r.read_bit(), std::nullopt);
  EXPECT_EQ(r.read_varint(), std::nullopt);

  BitReader fresh(w.bytes(), w.bit_size());
  EXPECT_EQ(fresh.read_uint(4), std::optional<std::uint64_t>(0b1011));
  EXPECT_TRUE(fresh.ok());
}

TEST(BitIo, TruncatedVarintRestoresThePosition) {
  BitWriter w;
  w.write_uint(0xAB, 8);
  raw_group(w, 0x7F, true);  // promises a second group that never comes
  BitReader r(w.bytes(), w.bit_size());
  EXPECT_EQ(r.read_uint(8), std::optional<std::uint64_t>(0xAB));
  EXPECT_EQ(r.read_varint(), std::nullopt);
  EXPECT_TRUE(r.failed());
  EXPECT_EQ(r.position(), 8u);  // rewound to where the varint began
}

// --- Differential tests: the byte-granular kernels against a bitwise model.
//
// The model moves one bit per step, exactly as the original kernels did; it
// is the oracle for bit order, zero padding and every failure rule.

class ModelWriter {
 public:
  void write_uint(std::uint64_t value, unsigned width) {
    for (unsigned i = 0; i < width; ++i) push(((value >> i) & 1u) != 0);
  }
  void write_bit(bool bit) { push(bit); }
  void write_varint(std::uint64_t value) {
    do {
      const std::uint64_t group = value & 0x7Fu;
      value >>= 7;
      write_uint(group, 7);
      push(value != 0);
    } while (value != 0);
  }
  void write_bits(const std::uint8_t* bytes, std::size_t nbits) {
    for (std::size_t i = 0; i < nbits; ++i)
      push(((bytes[i / 8] >> (i % 8)) & 1u) != 0);
  }

  std::size_t bit_size() const { return nbits_; }
  const std::vector<std::uint8_t>& bytes() const { return bytes_; }

 private:
  void push(bool bit) {
    if (nbits_ % 8 == 0) bytes_.push_back(0);
    if (bit) bytes_.back() |= static_cast<std::uint8_t>(1u << (nbits_ % 8));
    ++nbits_;
  }

  std::vector<std::uint8_t> bytes_;
  std::size_t nbits_ = 0;
};

class ModelReader {
 public:
  ModelReader(const std::uint8_t* data, std::size_t nbits)
      : data_(data), nbits_(nbits) {}

  std::optional<std::uint64_t> read_uint(unsigned width) {
    if (failed_ || width > 64 || nbits_ - pos_ < width) {
      failed_ = true;
      return std::nullopt;
    }
    std::uint64_t value = 0;
    for (unsigned i = 0; i < width; ++i, ++pos_)
      if ((data_[pos_ / 8] >> (pos_ % 8)) & 1u) value |= std::uint64_t{1} << i;
    return value;
  }

  std::optional<std::uint64_t> read_varint() {
    const std::size_t start = pos_;
    std::uint64_t value = 0;
    unsigned shift = 0;
    for (;;) {
      const auto group = read_uint(7);
      const auto cont = read_uint(1);
      if (!group || !cont || shift >= 64 ||
          (shift > 57 && (*group >> (64 - shift)) != 0) ||
          (*cont == 0 && shift > 0 && *group == 0)) {
        pos_ = start;
        failed_ = true;
        return std::nullopt;
      }
      value |= *group << shift;
      if (*cont == 0) return value;
      shift += 7;
    }
  }

  std::size_t position() const { return pos_; }
  bool failed() const { return failed_; }

 private:
  const std::uint8_t* data_;
  std::size_t nbits_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

/// The kernel and the model agree on the bits, the zero padding, and the
/// BitString value (==, hash) of what was written.
void expect_same_output(const BitWriter& w, const ModelWriter& m) {
  ASSERT_EQ(w.bit_size(), m.bit_size());
  ASSERT_EQ(w.bytes(), m.bytes());
  const BitString a(w.bytes(), w.bit_size());
  const BitString b(m.bytes(), m.bit_size());
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
}

/// `nbits` random bits whose padding bits (past nbits in the last byte) are
/// all 1s, in a buffer of exactly ceil(nbits/8) bytes, so a kernel that
/// reads past it or forgets to mask trips the sanitizers or the model.
std::vector<std::uint8_t> dirty_source(Rng& rng, std::size_t nbits) {
  std::vector<std::uint8_t> bytes((nbits + 7) / 8);
  for (std::uint8_t& b : bytes) b = static_cast<std::uint8_t>(rng.bits());
  if (nbits % 8 != 0)
    bytes.back() |= static_cast<std::uint8_t>(0xFFu << (nbits % 8));
  return bytes;
}

TEST(BitIoDifferential, WriteUintMatchesModelAtEveryOffset) {
  Rng rng(0xB17105);
  for (unsigned start = 0; start < 8; ++start)
    for (unsigned width = 0; width <= 64; ++width)
      for (int rep = 0; rep < 8; ++rep) {
        BitWriter w;
        ModelWriter m;
        const std::uint64_t lead = rng.bits();
        w.write_uint(lead, start);
        m.write_uint(lead, start);
        // Bits above `width` are set on purpose: they must not land.
        const std::uint64_t value = rng.bits();
        w.write_uint(value, width);
        m.write_uint(value, width);
        expect_same_output(w, m);
        // A follow-up write must merge into the same partial byte.
        w.write_uint(value, 3);
        m.write_uint(value, 3);
        expect_same_output(w, m);
      }
}

TEST(BitIoDifferential, WriteBitsMasksDirtyPaddingAtEveryOffset) {
  Rng rng(0xB175);
  for (unsigned start = 0; start < 8; ++start)
    for (std::size_t len = 0; len <= 200; ++len) {
      const std::vector<std::uint8_t> ones(
          (len + 7) / 8, static_cast<std::uint8_t>(0xFF));
      const std::vector<std::uint8_t> noise = dirty_source(rng, len);
      for (const std::vector<std::uint8_t>* src : {&ones, &noise}) {
        const BitString s = BitString::aliasing(src->data(), len);
        BitWriter w;
        ModelWriter m;
        const std::uint64_t lead = rng.bits();
        w.write_uint(lead, start);
        m.write_uint(lead, start);
        w.write_bits(s.data(), s.bit_size());
        m.write_bits(s.data(), s.bit_size());
        expect_same_output(w, m);
        w.write_bit(true);
        m.write_bit(true);
        expect_same_output(w, m);
      }
    }
}

TEST(BitIoDifferential, RandomOpSequencesMatchModel) {
  Rng rng(0x5E0);
  for (int seq = 0; seq < 300; ++seq) {
    BitWriter w;
    ModelWriter m;
    const int ops = static_cast<int>(rng.between(1, 40));
    for (int op = 0; op < ops; ++op) {
      switch (rng.below(4)) {
        case 0: {
          const auto width = static_cast<unsigned>(rng.below(65));
          const std::uint64_t value = rng.bits();
          w.write_uint(value, width);
          m.write_uint(value, width);
          break;
        }
        case 1: {
          const bool bit = rng.chance(0.5);
          w.write_bit(bit);
          m.write_bit(bit);
          break;
        }
        case 2: {
          const std::uint64_t value = rng.bits() >> rng.below(64);
          w.write_varint(value);
          m.write_varint(value);
          break;
        }
        default: {
          const std::size_t len = rng.below(201);
          const std::vector<std::uint8_t> src = dirty_source(rng, len);
          w.write_bits(src.data(), len);
          m.write_bits(src.data(), len);
          break;
        }
      }
      expect_same_output(w, m);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(BitIoDifferential, WriteVarintMatchesModel) {
  Rng rng(0x7A1);
  for (unsigned start = 0; start < 8; ++start)
    for (unsigned bits = 0; bits <= 64; ++bits) {
      BitWriter w;
      ModelWriter m;
      w.write_uint(0, start);
      m.write_uint(0, start);
      const std::uint64_t value = bits == 0 ? 0 : rng.bits() >> (64 - bits);
      w.write_varint(value);
      m.write_varint(value);
      expect_same_output(w, m);
    }
}

/// A fresh kernel reader and model reader over the same `nbits`, both
/// advanced to `pos` (pos <= nbits).
std::pair<BitReader, ModelReader> readers_at(const std::uint8_t* data,
                                             std::size_t nbits,
                                             std::size_t pos) {
  BitReader r(data, nbits);
  ModelReader m(data, nbits);
  for (std::size_t left = pos; left > 0;) {
    const auto take = static_cast<unsigned>(std::min<std::size_t>(left, 64));
    EXPECT_TRUE(r.read_uint(take).has_value());
    EXPECT_TRUE(m.read_uint(take).has_value());
    left -= take;
  }
  return {r, m};
}

/// After a read, kernel and model agree on position and failure; a failed
/// read left the position where it was and stays failed.
void expect_same_state(BitReader& r, const ModelReader& m,
                       std::size_t before) {
  EXPECT_EQ(r.position(), m.position());
  EXPECT_EQ(r.failed(), m.failed());
  if (r.failed()) {
    EXPECT_EQ(r.position(), before);
    EXPECT_EQ(r.read_uint(0), std::nullopt);  // sticky, even for 0 bits
    EXPECT_EQ(r.position(), before);
  }
}

TEST(BitIoDifferential, ReadUintMatchesModelAtEveryOffsetAndTruncation) {
  Rng rng(0x4EAD);
  const std::vector<std::uint8_t> stream = dirty_source(rng, 136);
  for (std::size_t nbits = 0; nbits <= 136; ++nbits) {
    // Exactly ceil(nbits/8) bytes: the kernel may not touch more.
    const std::vector<std::uint8_t> data(stream.begin(),
                                         stream.begin() + (nbits + 7) / 8);
    for (std::size_t pos = 0; pos <= nbits; ++pos)
      for (unsigned width = 0; width <= 65; ++width) {
        auto [r, m] = readers_at(data.data(), nbits, pos);
        EXPECT_EQ(r.read_uint(width), m.read_uint(width))
            << "nbits " << nbits << " pos " << pos << " width " << width;
        expect_same_state(r, m, pos);
        if (::testing::Test::HasFailure()) return;
      }
  }
}

TEST(BitIoDifferential, ReadVarintMatchesModelAtEveryOffsetAndTruncation) {
  Rng rng(0x7A2);
  // Random bytes give short multi-group encodings (and every rejection
  // shape); written varints of every size give the long canonical ones.
  std::vector<std::vector<std::uint8_t>> streams;
  streams.push_back(dirty_source(rng, 160));
  for (int s = 0; s < 4; ++s) {
    BitWriter w;
    w.write_uint(rng.bits(), static_cast<unsigned>(rng.below(8)));
    while (w.bit_size() < 240) w.write_varint(rng.bits() >> rng.below(64));
    streams.push_back(w.take_bytes());
  }
  for (const std::vector<std::uint8_t>& stream : streams) {
    const std::size_t total = std::min<std::size_t>(stream.size() * 8, 240);
    for (std::size_t nbits = 0; nbits <= total; nbits += 3) {
      const std::vector<std::uint8_t> data(stream.begin(),
                                           stream.begin() + (nbits + 7) / 8);
      for (std::size_t pos = 0; pos <= nbits; ++pos) {
        auto [r, m] = readers_at(data.data(), nbits, pos);
        EXPECT_EQ(r.read_varint(), m.read_varint())
            << "nbits " << nbits << " pos " << pos;
        expect_same_state(r, m, pos);
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

}  // namespace
}  // namespace pls::util
