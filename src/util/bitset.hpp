// Dynamic fixed-universe bitset with word-parallel set algebra.
//
// Node sets (subsets of V_n) and slot sets (subsets of [0,L)) throughout the
// library are DynamicBitsets. The hot paths of the topology-transparency
// checkers are AND/ANDNOT folds over these, so the operations below are
// written to vectorize and to avoid allocation in loops (see the *_inplace
// and *_into variants).
#pragma once

#include <bit>
#include <cstdint>
#include <cstddef>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "util/check.hpp"

namespace ttdc::util {

/// A fixed-size set of integers drawn from the universe [0, size()).
///
/// Invariant: bits at positions >= size() in the last word are always zero,
/// so popcount/equality/iteration never need masking on read.
class DynamicBitset {
 public:
  using Word = std::uint64_t;
  static constexpr std::size_t kWordBits = 64;

  DynamicBitset() = default;

  /// Constructs an empty set over the universe [0, universe_size).
  explicit DynamicBitset(std::size_t universe_size)
      : size_(universe_size), words_((universe_size + kWordBits - 1) / kWordBits, 0) {}

  /// Constructs a set over [0, universe_size) containing `members`.
  DynamicBitset(std::size_t universe_size, std::initializer_list<std::size_t> members)
      : DynamicBitset(universe_size) {
    for (std::size_t m : members) set(m);
  }

  /// Universe size (number of addressable positions), not the cardinality.
  [[nodiscard]] std::size_t size() const { return size_; }

  [[nodiscard]] bool test(std::size_t pos) const {
    TTDC_CHECK_BOUNDS(pos, size_);
    return (words_[pos / kWordBits] >> (pos % kWordBits)) & 1u;
  }

  void set(std::size_t pos) {
    TTDC_CHECK_BOUNDS(pos, size_);
    words_[pos / kWordBits] |= Word{1} << (pos % kWordBits);
  }

  void reset(std::size_t pos) {
    TTDC_CHECK_BOUNDS(pos, size_);
    words_[pos / kWordBits] &= ~(Word{1} << (pos % kWordBits));
  }

  void set_all();
  void reset_all();

  /// *this = other, without changing universes. Requires equal size();
  /// never allocates (the word storage is reused), which makes it the
  /// assignment of choice inside per-slot hot loops.
  void copy_from(const DynamicBitset& other);

  /// Complement in place (no allocation, unlike complement()).
  void flip_all();

  /// Number of members (popcount across words).
  [[nodiscard]] std::size_t count() const;

  [[nodiscard]] bool none() const;
  [[nodiscard]] bool any() const { return !none(); }

  /// True if *this and other share at least one member. O(words), no alloc.
  [[nodiscard]] bool intersects(const DynamicBitset& other) const;

  /// True if every member of *this is a member of `other`.
  [[nodiscard]] bool is_subset_of(const DynamicBitset& other) const;

  /// |*this AND other| without materializing the intersection.
  [[nodiscard]] std::size_t intersection_count(const DynamicBitset& other) const;

  /// |*this AND NOT other| without materializing the difference.
  [[nodiscard]] std::size_t difference_count(const DynamicBitset& other) const;

  /// True if (*this AND NOT other) is non-empty, i.e. *this has a member
  /// outside `other`. This is the inner kernel of the Requirement checkers.
  [[nodiscard]] bool has_member_outside(const DynamicBitset& other) const;

  DynamicBitset& operator&=(const DynamicBitset& other);
  DynamicBitset& operator|=(const DynamicBitset& other);
  DynamicBitset& operator^=(const DynamicBitset& other);

  /// *this = *this AND NOT other.
  DynamicBitset& subtract(const DynamicBitset& other);

  [[nodiscard]] friend DynamicBitset operator&(DynamicBitset a, const DynamicBitset& b) {
    a &= b;
    return a;
  }
  [[nodiscard]] friend DynamicBitset operator|(DynamicBitset a, const DynamicBitset& b) {
    a |= b;
    return a;
  }
  [[nodiscard]] friend DynamicBitset operator^(DynamicBitset a, const DynamicBitset& b) {
    a ^= b;
    return a;
  }

  /// Set difference a \ b.
  [[nodiscard]] friend DynamicBitset difference(DynamicBitset a, const DynamicBitset& b) {
    a.subtract(b);
    return a;
  }

  /// Complement within the universe.
  [[nodiscard]] DynamicBitset complement() const;

  bool operator==(const DynamicBitset& other) const = default;

  /// Index of the lowest member, or size() if empty.
  [[nodiscard]] std::size_t find_first() const;

  /// Index of the lowest member strictly greater than pos, or size() if none.
  [[nodiscard]] std::size_t find_next(std::size_t pos) const;

  /// Calls fn(i) for every member i in increasing order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      Word word = words_[w];
      while (word != 0) {
        const auto bit = static_cast<std::size_t>(std::countr_zero(word));
        fn(w * kWordBits + bit);
        word &= word - 1;
      }
    }
  }

  /// Members as a vector, in increasing order.
  [[nodiscard]] std::vector<std::size_t> to_vector() const;

  /// "{0, 5, 17}" style rendering for logs and error messages.
  [[nodiscard]] std::string to_string() const;

  /// Raw word storage (read-only), for hashing and fused kernels.
  [[nodiscard]] const std::vector<Word>& words() const { return words_; }

  /// Fused kernel: |this AND a AND NOT b| (e.g. |recv(y) ∩ freeSlots|).
  [[nodiscard]] std::size_t count_and_andnot(const DynamicBitset& a,
                                             const DynamicBitset& b) const;

  /// Fused kernel: does (this AND a AND NOT b) have any member?
  [[nodiscard]] bool any_and_andnot(const DynamicBitset& a, const DynamicBitset& b) const;

  /// Transposes the bit matrix whose rows are `rows`, each a set over
  /// [0, cols): returns `cols` sets over [0, rows.size()) with
  /// out[c].test(r) == rows[r].test(c). Dense matrices go through 64x64
  /// bit-block transposes, O(rows·cols/64) word operations; a matrix with at
  /// most one member per 64 cells scatters its members instead, which is
  /// cheaper than transposing blocks that are almost all zero.
  [[nodiscard]] static std::vector<DynamicBitset> transpose(std::span<const DynamicBitset> rows,
                                                            std::size_t cols);

 private:
  void trim_tail();

  std::size_t size_ = 0;
  std::vector<Word> words_;
};

/// FNV-1a hash over the word storage; lets DynamicBitset key hash maps.
struct BitsetHash {
  std::size_t operator()(const DynamicBitset& b) const noexcept;
};

}  // namespace ttdc::util
