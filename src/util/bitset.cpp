#include "util/bitset.hpp"

#include <algorithm>
#include <bit>
#include <sstream>

namespace ttdc::util {

namespace {

using Word = DynamicBitset::Word;
constexpr std::size_t kWordBits = DynamicBitset::kWordBits;

// One round of the 64x64 block transpose: in every aligned 2W x 2W
// sub-block, swaps the top-right W x W quadrant (rows k, high W bits of each
// 2W-bit lane) with the bottom-left one (rows k + W, low W bits). kMask
// selects the low W bits of every 2W-bit lane. W is a template parameter so
// each round's loops unroll and vectorize.
template <std::size_t W, Word kMask>
void swap_quadrants(Word (&block)[kWordBits]) {
  for (std::size_t base = 0; base < kWordBits; base += 2 * W) {
    for (std::size_t k = base; k < base + W; ++k) {
      const Word swap = ((block[k] >> W) ^ block[k + W]) & kMask;
      block[k] ^= swap << W;
      block[k + W] ^= swap;
    }
  }
}

// In-place transpose of a 64x64 bit block: afterwards bit j of block[k] is
// what bit k of block[j] was.
void transpose_block(Word (&block)[kWordBits]) {
  swap_quadrants<32, 0x00000000FFFFFFFFull>(block);
  swap_quadrants<16, 0x0000FFFF0000FFFFull>(block);
  swap_quadrants<8, 0x00FF00FF00FF00FFull>(block);
  swap_quadrants<4, 0x0F0F0F0F0F0F0F0Full>(block);
  swap_quadrants<2, 0x3333333333333333ull>(block);
  swap_quadrants<1, 0x5555555555555555ull>(block);
}

}  // namespace

void DynamicBitset::set_all() {
  for (auto& w : words_) w = ~Word{0};
  trim_tail();
}

void DynamicBitset::reset_all() {
  for (auto& w : words_) w = 0;
}

void DynamicBitset::copy_from(const DynamicBitset& other) {
  TTDC_DCHECK(size_ == other.size_, "bitset universe mismatch: ", size_, " vs ",
              other.size_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] = other.words_[i];
}

void DynamicBitset::flip_all() {
  for (auto& w : words_) w = ~w;
  trim_tail();
}

std::size_t DynamicBitset::count() const {
  std::size_t total = 0;
  for (Word w : words_) total += static_cast<std::size_t>(std::popcount(w));
  return total;
}

bool DynamicBitset::none() const {
  for (Word w : words_) {
    if (w != 0) return false;
  }
  return true;
}

bool DynamicBitset::intersects(const DynamicBitset& other) const {
  TTDC_DCHECK(size_ == other.size_, "bitset universe mismatch: ", size_, " vs ",
              other.size_);
  for (std::size_t i = 0; i < words_.size(); ++i) {
    if ((words_[i] & other.words_[i]) != 0) return true;
  }
  return false;
}

bool DynamicBitset::is_subset_of(const DynamicBitset& other) const {
  TTDC_DCHECK(size_ == other.size_, "bitset universe mismatch: ", size_, " vs ",
              other.size_);
  for (std::size_t i = 0; i < words_.size(); ++i) {
    if ((words_[i] & ~other.words_[i]) != 0) return false;
  }
  return true;
}

std::size_t DynamicBitset::intersection_count(const DynamicBitset& other) const {
  TTDC_DCHECK(size_ == other.size_, "bitset universe mismatch: ", size_, " vs ",
              other.size_);
  std::size_t total = 0;
  for (std::size_t i = 0; i < words_.size(); ++i) {
    total += static_cast<std::size_t>(std::popcount(words_[i] & other.words_[i]));
  }
  return total;
}

std::size_t DynamicBitset::difference_count(const DynamicBitset& other) const {
  TTDC_DCHECK(size_ == other.size_, "bitset universe mismatch: ", size_, " vs ",
              other.size_);
  std::size_t total = 0;
  for (std::size_t i = 0; i < words_.size(); ++i) {
    total += static_cast<std::size_t>(std::popcount(words_[i] & ~other.words_[i]));
  }
  return total;
}

bool DynamicBitset::has_member_outside(const DynamicBitset& other) const {
  TTDC_DCHECK(size_ == other.size_, "bitset universe mismatch: ", size_, " vs ",
              other.size_);
  for (std::size_t i = 0; i < words_.size(); ++i) {
    if ((words_[i] & ~other.words_[i]) != 0) return true;
  }
  return false;
}

DynamicBitset& DynamicBitset::operator&=(const DynamicBitset& other) {
  TTDC_DCHECK(size_ == other.size_, "bitset universe mismatch: ", size_, " vs ",
              other.size_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
  return *this;
}

DynamicBitset& DynamicBitset::operator|=(const DynamicBitset& other) {
  TTDC_DCHECK(size_ == other.size_, "bitset universe mismatch: ", size_, " vs ",
              other.size_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
  return *this;
}

DynamicBitset& DynamicBitset::operator^=(const DynamicBitset& other) {
  TTDC_DCHECK(size_ == other.size_, "bitset universe mismatch: ", size_, " vs ",
              other.size_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] ^= other.words_[i];
  return *this;
}

DynamicBitset& DynamicBitset::subtract(const DynamicBitset& other) {
  TTDC_DCHECK(size_ == other.size_, "bitset universe mismatch: ", size_, " vs ",
              other.size_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= ~other.words_[i];
  return *this;
}

DynamicBitset DynamicBitset::complement() const {
  DynamicBitset out(size_);
  for (std::size_t i = 0; i < words_.size(); ++i) out.words_[i] = ~words_[i];
  out.trim_tail();
  return out;
}

std::size_t DynamicBitset::find_first() const {
  for (std::size_t w = 0; w < words_.size(); ++w) {
    if (words_[w] != 0) {
      return w * kWordBits + static_cast<std::size_t>(std::countr_zero(words_[w]));
    }
  }
  return size_;
}

std::size_t DynamicBitset::find_next(std::size_t pos) const {
  ++pos;
  if (pos >= size_) return size_;
  std::size_t w = pos / kWordBits;
  Word masked = words_[w] & (~Word{0} << (pos % kWordBits));
  if (masked != 0) {
    return w * kWordBits + static_cast<std::size_t>(std::countr_zero(masked));
  }
  for (++w; w < words_.size(); ++w) {
    if (words_[w] != 0) {
      return w * kWordBits + static_cast<std::size_t>(std::countr_zero(words_[w]));
    }
  }
  return size_;
}

std::vector<std::size_t> DynamicBitset::to_vector() const {
  std::vector<std::size_t> out;
  out.reserve(count());
  for_each([&](std::size_t i) { out.push_back(i); });
  return out;
}

std::string DynamicBitset::to_string() const {
  std::ostringstream os;
  os << '{';
  bool first = true;
  for_each([&](std::size_t i) {
    if (!first) os << ", ";
    os << i;
    first = false;
  });
  os << '}';
  return os.str();
}

std::size_t DynamicBitset::count_and_andnot(const DynamicBitset& a,
                                            const DynamicBitset& b) const {
  TTDC_DCHECK(size_ == a.size_ && size_ == b.size_,
              "bitset universe mismatch: ", size_, " vs ", a.size_, " / ", b.size_);
  std::size_t total = 0;
  for (std::size_t i = 0; i < words_.size(); ++i) {
    total += static_cast<std::size_t>(std::popcount(words_[i] & a.words_[i] & ~b.words_[i]));
  }
  return total;
}

bool DynamicBitset::any_and_andnot(const DynamicBitset& a, const DynamicBitset& b) const {
  TTDC_DCHECK(size_ == a.size_ && size_ == b.size_,
              "bitset universe mismatch: ", size_, " vs ", a.size_, " / ", b.size_);
  for (std::size_t i = 0; i < words_.size(); ++i) {
    if ((words_[i] & a.words_[i] & ~b.words_[i]) != 0) return true;
  }
  return false;
}

std::vector<DynamicBitset> DynamicBitset::transpose(std::span<const DynamicBitset> rows,
                                                    std::size_t cols) {
#if TTDC_ENABLE_CHECKS
  for (const DynamicBitset& row : rows) {
    TTDC_DCHECK(row.size_ == cols, "transpose: row universe ", row.size_, " != ", cols);
  }
#endif
  const std::size_t num_rows = rows.size();
  std::vector<DynamicBitset> out(cols, DynamicBitset(num_rows));
  const std::size_t row_blocks = (num_rows + kWordBits - 1) / kWordBits;
  const std::size_t col_words = (cols + kWordBits - 1) / kWordBits;

  // Sparse (on average at most one member per 64 cells): one write per
  // member beats a block transpose per 64x64 cells. Counting stops as soon
  // as the matrix is known to be denser than that.
  const std::size_t scatter_budget = row_blocks * col_words * kWordBits;
  std::size_t population = 0;
  for (std::size_t r = 0; r < num_rows && population <= scatter_budget; ++r) {
    population += rows[r].count();
  }
  if (population <= scatter_budget) {
    for (std::size_t r = 0; r < num_rows; ++r) {
      const Word bit = Word{1} << (r % kWordBits);
      rows[r].for_each([&](std::size_t c) { out[c].words_[r / kWordBits] |= bit; });
    }
    return out;
  }

  // Dense: word w of 64 consecutive rows is one 64x64 block; transposed, its
  // word j is word `rb` of column w*64 + j. Rows past the end read as zero,
  // so the output's tail bits stay clear; all-zero blocks are skipped.
  Word block[kWordBits] = {};
  for (std::size_t rb = 0; rb < row_blocks; ++rb) {
    const std::size_t r0 = rb * kWordBits;
    const std::size_t height = std::min(kWordBits, num_rows - r0);
    for (std::size_t w = 0; w < col_words; ++w) {
      Word any = 0;
      for (std::size_t k = 0; k < height; ++k) {
        block[k] = rows[r0 + k].words_[w];
        any |= block[k];
      }
      if (any == 0) continue;
      std::fill(block + height, block + kWordBits, Word{0});
      transpose_block(block);
      const std::size_t width = std::min(kWordBits, cols - w * kWordBits);
      for (std::size_t j = 0; j < width; ++j) out[w * kWordBits + j].words_[rb] = block[j];
    }
  }
  return out;
}

void DynamicBitset::trim_tail() {
  const std::size_t rem = size_ % kWordBits;
  if (rem != 0 && !words_.empty()) {
    words_.back() &= (Word{1} << rem) - 1;
  }
}

std::size_t BitsetHash::operator()(const DynamicBitset& b) const noexcept {
  std::size_t h = 1469598103934665603ull;
  for (DynamicBitset::Word w : b.words()) {
    h ^= static_cast<std::size_t>(w);
    h *= 1099511628211ull;
  }
  h ^= b.size();
  return h;
}

}  // namespace ttdc::util
