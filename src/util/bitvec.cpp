#include "src/util/bitvec.hpp"

#include <algorithm>
#include <bit>

#include "src/util/expect.hpp"

namespace xlf {

bool BitVec::get(std::size_t i) const {
  XLF_EXPECT(i < bits_);
  return (words_[i / 64] >> (i % 64)) & 1u;
}

void BitVec::set(std::size_t i, bool value) {
  XLF_EXPECT(i < bits_);
  const std::uint64_t mask = 1ull << (i % 64);
  if (value) {
    words_[i / 64] |= mask;
  } else {
    words_[i / 64] &= ~mask;
  }
}

void BitVec::flip(std::size_t i) {
  XLF_EXPECT(i < bits_);
  words_[i / 64] ^= 1ull << (i % 64);
}

std::size_t BitVec::popcount() const {
  std::size_t count = 0;
  for (std::uint64_t w : words_) count += static_cast<std::size_t>(std::popcount(w));
  return count;
}

std::size_t BitVec::hamming_distance(const BitVec& other) const {
  XLF_EXPECT(bits_ == other.bits_);
  std::size_t count = 0;
  for (std::size_t i = 0; i < words_.size(); ++i) {
    count += static_cast<std::size_t>(std::popcount(words_[i] ^ other.words_[i]));
  }
  return count;
}

std::vector<std::size_t> BitVec::set_positions() const {
  std::vector<std::size_t> out;
  for (std::size_t w = 0; w < words_.size(); ++w) {
    std::uint64_t word = words_[w];
    while (word != 0) {
      const int bit = std::countr_zero(word);
      // Bounded by the popcount of the (page-sized) vector.
      out.push_back(w * 64 + static_cast<std::size_t>(bit));  // xlf-lint: allow(hot-alloc)
      word &= word - 1;
    }
  }
  return out;
}

BitVec& BitVec::operator^=(const BitVec& other) {
  XLF_EXPECT(bits_ == other.bits_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] ^= other.words_[i];
  return *this;
}

bool BitVec::operator==(const BitVec& other) const {
  return bits_ == other.bits_ && words_ == other.words_;
}

void BitVec::clear() {
  for (auto& w : words_) w = 0;
}

std::uint64_t BitVec::bits_at(std::size_t pos, std::size_t count) const {
  const std::size_t w = pos / 64;
  const std::size_t shift = pos % 64;
  std::uint64_t value = words_[w] >> shift;
  if (shift != 0 && shift + count > 64) value |= words_[w + 1] << (64 - shift);
  return count == 64 ? value : value & ((1ull << count) - 1);
}

void BitVec::put_bits(std::size_t pos, std::size_t count,
                      std::uint64_t value) {
  const std::size_t w = pos / 64;
  const std::size_t shift = pos % 64;
  const std::uint64_t mask = count == 64 ? ~0ull : (1ull << count) - 1;
  words_[w] = (words_[w] & ~(mask << shift)) | (value << shift);
  if (shift != 0 && shift + count > 64) {
    words_[w + 1] = (words_[w + 1] & ~(mask >> (64 - shift))) |
                    (value >> (64 - shift));
  }
}

BitVec BitVec::slice(std::size_t offset, std::size_t count) const {
  XLF_EXPECT(offset + count <= bits_);
  BitVec out(count);
  for (std::size_t w = 0; w < out.words_.size(); ++w) {
    out.words_[w] =
        bits_at(offset + 64 * w, std::min<std::size_t>(64, count - 64 * w));
  }
  return out;
}

void BitVec::insert(std::size_t offset, const BitVec& src) {
  XLF_EXPECT(offset + src.bits_ <= bits_);
  for (std::size_t w = 0; w < src.words_.size(); ++w) {
    put_bits(offset + 64 * w, std::min<std::size_t>(64, src.bits_ - 64 * w),
             src.words_[w]);
  }
}

void BitVec::set_word(std::size_t w, std::uint64_t value) {
  XLF_EXPECT(w < words_.size());
  words_[w] = value;
  if (w + 1 == words_.size()) mask_tail();
}

std::uint8_t BitVec::byte(std::size_t i) const {
  XLF_EXPECT(8 * i < bits_);
  return static_cast<std::uint8_t>(words_[i / 8] >> ((i % 8) * 8));
}

void BitVec::set_byte(std::size_t i, std::uint8_t value) {
  XLF_EXPECT(8 * i < bits_);
  const std::size_t w = i / 8;
  const unsigned shift = (i % 8) * 8;
  words_[w] = (words_[w] & ~(0xFFull << shift)) |
              (static_cast<std::uint64_t>(value) << shift);
  mask_tail();
}

void BitVec::mask_tail() {
  const std::size_t tail = bits_ % 64;
  if (tail != 0 && !words_.empty()) {
    words_.back() &= (1ull << tail) - 1;
  }
}

}  // namespace xlf
