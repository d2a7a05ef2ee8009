// Fixed-length bit vector backed by packed 64-bit words.
//
// Pages (32768 data bits), codewords (~33808 bits) and error patterns
// are all BitVecs. Unlike Gf2Poly this type has an explicit length, so
// trailing zero bits are meaningful (a codeword keeps its length even
// when its top bits are zero).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace xlf {

class BitVec {
 public:
  BitVec() = default;
  explicit BitVec(std::size_t bits) : bits_(bits), words_((bits + 63) / 64, 0) {}

  std::size_t size() const { return bits_; }
  bool empty() const { return bits_ == 0; }

  bool get(std::size_t i) const;
  void set(std::size_t i, bool value);
  void flip(std::size_t i);

  // Number of set bits.
  std::size_t popcount() const;
  // Number of positions where *this and other differ; sizes must match.
  std::size_t hamming_distance(const BitVec& other) const;
  // Indices of set bits, ascending.
  std::vector<std::size_t> set_positions() const;

  // XOR-accumulate other into this; sizes must match.
  BitVec& operator^=(const BitVec& other);
  bool operator==(const BitVec& other) const;

  void clear();

  // Extract `count` bits starting at `offset` into a new BitVec.
  BitVec slice(std::size_t offset, std::size_t count) const;
  // Overwrite bits [offset, offset+src.size()) with src.
  void insert(std::size_t offset, const BitVec& src);

  const std::vector<std::uint64_t>& words() const { return words_; }
  std::uint64_t word(std::size_t w) const { return words_[w]; }
  // Overwrite word w (bits [64w, 64w+64)); bits past size() are dropped.
  void set_word(std::size_t w, std::uint64_t value);

  // Byte accessors for interfacing page buffers; byte i covers bits
  // [8i, 8i+8) little-endian within the vector.
  std::uint8_t byte(std::size_t i) const;
  void set_byte(std::size_t i, std::uint8_t value);

 private:
  void mask_tail();
  // The `count` (<= 64) bits starting at bit `pos`, in the low bits.
  std::uint64_t bits_at(std::size_t pos, std::size_t count) const;
  // Overwrite `count` (<= 64) bits at `pos` with the low bits of
  // `value`, whose higher bits must be zero.
  void put_bits(std::size_t pos, std::size_t count, std::uint64_t value);
  std::size_t bits_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace xlf
