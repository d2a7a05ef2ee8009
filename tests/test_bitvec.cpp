#include "src/util/bitvec.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "src/util/rng.hpp"

namespace xlf {
namespace {

TEST(BitVec, StartsZeroed) {
  BitVec v(100);
  EXPECT_EQ(v.size(), 100u);
  EXPECT_EQ(v.popcount(), 0u);
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_FALSE(v.get(i));
}

TEST(BitVec, SetGetFlip) {
  BitVec v(130);
  v.set(0, true);
  v.set(64, true);
  v.set(129, true);
  EXPECT_TRUE(v.get(0));
  EXPECT_TRUE(v.get(64));
  EXPECT_TRUE(v.get(129));
  EXPECT_EQ(v.popcount(), 3u);
  v.flip(64);
  EXPECT_FALSE(v.get(64));
  v.flip(65);
  EXPECT_TRUE(v.get(65));
  EXPECT_EQ(v.popcount(), 3u);
}

TEST(BitVec, OutOfRangeThrows) {
  BitVec v(10);
  EXPECT_THROW(v.get(10), std::invalid_argument);
  EXPECT_THROW(v.set(10, true), std::invalid_argument);
  EXPECT_THROW(v.flip(10), std::invalid_argument);
}

TEST(BitVec, SetPositionsAscending) {
  BitVec v(200);
  v.set(5, true);
  v.set(199, true);
  v.set(64, true);
  const auto positions = v.set_positions();
  ASSERT_EQ(positions.size(), 3u);
  EXPECT_EQ(positions[0], 5u);
  EXPECT_EQ(positions[1], 64u);
  EXPECT_EQ(positions[2], 199u);
}

TEST(BitVec, HammingDistance) {
  BitVec a(128), b(128);
  a.set(3, true);
  a.set(70, true);
  b.set(70, true);
  b.set(100, true);
  EXPECT_EQ(a.hamming_distance(b), 2u);
  EXPECT_EQ(a.hamming_distance(a), 0u);
}

TEST(BitVec, XorAccumulate) {
  BitVec a(128), b(128);
  a.set(1, true);
  a.set(2, true);
  b.set(2, true);
  b.set(3, true);
  a ^= b;
  EXPECT_TRUE(a.get(1));
  EXPECT_FALSE(a.get(2));
  EXPECT_TRUE(a.get(3));
}

TEST(BitVec, SliceAlignedAndUnaligned) {
  BitVec v(256);
  for (std::size_t i = 0; i < 256; i += 3) v.set(i, true);

  const BitVec aligned = v.slice(64, 128);
  EXPECT_EQ(aligned.size(), 128u);
  for (std::size_t i = 0; i < 128; ++i) {
    EXPECT_EQ(aligned.get(i), v.get(64 + i)) << "bit " << i;
  }

  const BitVec unaligned = v.slice(13, 77);
  EXPECT_EQ(unaligned.size(), 77u);
  for (std::size_t i = 0; i < 77; ++i) {
    EXPECT_EQ(unaligned.get(i), v.get(13 + i)) << "bit " << i;
  }
}

TEST(BitVec, InsertRoundTripsSlice) {
  Rng rng(42);
  BitVec v(512);
  for (std::size_t i = 0; i < v.size(); ++i) v.set(i, rng.chance(0.5));

  BitVec dst(512);
  dst.insert(128, v.slice(128, 256));
  for (std::size_t i = 0; i < 256; ++i) {
    EXPECT_EQ(dst.get(128 + i), v.get(128 + i));
  }

  // Unaligned insert.
  BitVec dst2(512);
  dst2.insert(3, v.slice(0, 100));
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(dst2.get(3 + i), v.get(i));
  }
}

TEST(BitVec, ByteAccess) {
  BitVec v(64);
  v.set_byte(0, 0xA5);
  v.set_byte(7, 0xFF);
  EXPECT_EQ(v.byte(0), 0xA5);
  EXPECT_EQ(v.byte(7), 0xFF);
  // Byte 0 covers bits 0..7 little-endian.
  EXPECT_TRUE(v.get(0));
  EXPECT_FALSE(v.get(1));
  EXPECT_TRUE(v.get(2));
  EXPECT_TRUE(v.get(7));
}

TEST(BitVec, ByteWriteDoesNotDisturbNeighbours) {
  BitVec v(24);
  v.set_byte(0, 0xFF);
  v.set_byte(2, 0xFF);
  v.set_byte(1, 0x81);
  EXPECT_EQ(v.byte(0), 0xFF);
  EXPECT_EQ(v.byte(1), 0x81);
  EXPECT_EQ(v.byte(2), 0xFF);
}

TEST(BitVec, TailBitsStayMasked) {
  BitVec v(70);  // 6 tail bits in second word
  for (std::size_t i = 0; i < 70; ++i) v.set(i, true);
  EXPECT_EQ(v.popcount(), 70u);
  const auto positions = v.set_positions();
  EXPECT_EQ(positions.size(), 70u);
  EXPECT_EQ(positions.back(), 69u);
}

TEST(BitVec, EqualityIncludesLength) {
  BitVec a(10), b(10), c(11);
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
  b.set(9, true);
  EXPECT_FALSE(a == b);
}

TEST(BitVec, ClearResets) {
  BitVec v(128);
  v.set(5, true);
  v.set(127, true);
  v.clear();
  EXPECT_EQ(v.popcount(), 0u);
  EXPECT_EQ(v.size(), 128u);
}


// --- word-level slice / insert against a per-bit oracle ---------------

BitVec random_bits(std::size_t n, Rng& rng) {
  BitVec v(n);
  for (std::size_t i = 0; i < n; ++i) v.set(i, rng.chance(0.5));
  return v;
}

BitVec slice_oracle(const BitVec& v, std::size_t offset, std::size_t count) {
  BitVec out(count);
  for (std::size_t i = 0; i < count; ++i) out.set(i, v.get(offset + i));
  return out;
}

void insert_oracle(BitVec& v, std::size_t offset, const BitVec& src) {
  for (std::size_t i = 0; i < src.size(); ++i) v.set(offset + i, src.get(i));
}

// The bits of the last word past size() are zero.
bool tail_masked(const BitVec& v) {
  return v.size() % 64 == 0 || (v.words().back() >> (v.size() % 64)) == 0;
}

TEST(BitVec, SliceAndInsertMatchPerBitOracleAtEveryOffset) {
  Rng rng(41);
  const BitVec source = random_bits(130 + 200 + 64, rng);
  for (std::size_t offset = 0; offset <= 130; ++offset) {
    for (std::size_t count = 0; count <= 200; ++count) {
      const BitVec piece = source.slice(offset, count);
      // operator== compares whole words, tails included.
      ASSERT_EQ(piece, slice_oracle(source, offset, count))
          << "slice at " << offset << ", length " << count;
      ASSERT_TRUE(tail_masked(piece));

      // Destinations ending at the insert and past it.
      BitVec dest = random_bits(offset + count + count % 67, rng);
      BitVec expected = dest;
      dest.insert(offset, piece);
      insert_oracle(expected, offset, piece);
      ASSERT_EQ(dest, expected)
          << "insert at " << offset << ", length " << count;
      ASSERT_TRUE(tail_masked(dest));
    }
  }
}

TEST(BitVec, PageSizedSliceAndInsertAtEveryParityWidth) {
  // The codec's layout: 16t parity bits, then the k = 32,768-bit
  // message, for every t the adaptive codec supports.
  Rng rng(43);
  const std::size_t k = 32768;
  const BitVec message = random_bits(k, rng);
  for (std::size_t t = 3; t <= 65; ++t) {
    const std::size_t offset = 16 * t;
    BitVec codeword = random_bits(offset + k, rng);
    BitVec expected = codeword;
    codeword.insert(offset, message);
    insert_oracle(expected, offset, message);
    ASSERT_EQ(codeword, expected) << "t " << t;
    ASSERT_TRUE(tail_masked(codeword));
    ASSERT_EQ(codeword.slice(offset, k), message) << "t " << t;
  }
}

TEST(BitVec, SetWordMasksTheTail) {
  BitVec v(70);
  v.set_word(0, ~0ull);
  v.set_word(1, ~0ull);
  EXPECT_EQ(v.popcount(), 70u);
  EXPECT_TRUE(tail_masked(v));
  v.set_word(0, 0x5ull);
  EXPECT_EQ(v.popcount(), 8u);
  EXPECT_THROW(v.set_word(2, 1), std::invalid_argument);
}

}  // namespace
}  // namespace xlf
