// Sparse/dense node sets for the simulator and the schedule model.
//
// A SlotSet is a set over a fixed universe [0, size()) that stores its
// members either as a sorted vector of indices (sparse) or as a
// DynamicBitset (dense), switching representation on population count so
// that per-slot set algebra costs O(active members) instead of O(universe)
// when almost everyone sleeps — the regime the paper's duty-cycled
// schedules are designed for. Every operation is representation-
// transparent: two SlotSets holding the same members are equal and behave
// identically regardless of how either stores them (DESIGN.md §13).
//
// Representation policy, decided here alone (no caller can force one):
//   * a universe of at most kDenseUniverse = 256 positions (4 words) is
//     dense from construction and never demotes — scanning 4 words costs
//     less than keeping an id list;
//   * above that, a set promotes sparse -> dense when count() exceeds
//     promote_threshold(n) (= max(16, n/32), the memory/scan break-even)
//     and demotes dense -> sparse when a member-removing operation leaves
//     count() below demote_threshold(n) (= promote/2); inside the band the
//     current representation is sticky, so counts oscillating around one
//     threshold never flap;
//   * copy_from(const SlotSet&) adopts the source's representation, and
//     reset_all() returns a large-universe set to empty-sparse.
//
// count() is maintained eagerly by every operation, so a const SlotSet is
// read-only by its type and safe to read from many threads at once. The
// dense word storage is kept allocated across demotions and the sparse
// vector keeps its capacity across promotions, so steady-state per-slot use
// never touches the allocator.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "util/bitset.hpp"
#include "util/check.hpp"

namespace ttdc::util {

class SlotSet {
 public:
  using Word = DynamicBitset::Word;

  /// Universes of at most this many positions are stored dense.
  static constexpr std::size_t kDenseUniverse = 256;

  /// The empty universe: dense, no words.
  SlotSet() = default;

  /// Empty set over the universe [0, universe_size): dense (its words
  /// allocated here) up to kDenseUniverse positions, sparse above.
  explicit SlotSet(std::size_t universe_size)
      : size_(universe_size),
        dense_(universe_size <= kDenseUniverse),
        bits_(dense_ ? universe_size : 0) {}

  SlotSet(std::size_t universe_size, std::initializer_list<std::size_t> members)
      : SlotSet(universe_size) {
    for (std::size_t m : members) set(m);
  }

  /// The ids `sorted_members` (strictly increasing, each < universe_size),
  /// in the representation copy_from(const DynamicBitset&) would pick. A
  /// sparse result adopts the vector.
  SlotSet(std::size_t universe_size, std::vector<std::uint32_t> sorted_members);

  /// Population count above which a sparse set promotes to dense.
  [[nodiscard]] static std::size_t promote_threshold(std::size_t universe_size) {
    const std::size_t scan = universe_size / 32;
    return scan < 16 ? 16 : scan;
  }
  /// Population count below which a dense set demotes back to sparse.
  /// Strictly below the promote threshold (the gap is the hysteresis
  /// band), and 0 — never — up to kDenseUniverse positions.
  [[nodiscard]] static std::size_t demote_threshold(std::size_t universe_size) {
    return universe_size <= kDenseUniverse ? 0 : promote_threshold(universe_size) / 2;
  }

  /// Universe size (addressable positions), not the cardinality.
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Number of members. O(1).
  [[nodiscard]] std::size_t count() const { return count_; }

  [[nodiscard]] bool none() const { return count() == 0; }
  [[nodiscard]] bool any() const { return !none(); }

  [[nodiscard]] bool is_dense() const { return dense_; }

  [[nodiscard]] bool test(std::size_t pos) const {
    TTDC_CHECK_BOUNDS(pos, size_);
    if (dense_) return bits_.test(pos);
    return sparse_find(static_cast<std::uint32_t>(pos)) != sparse_.size();
  }

  void set(std::size_t pos);
  void reset(std::size_t pos);

  /// Empties the set: sparse above kDenseUniverse positions (count 0 is
  /// below every demote threshold there), dense up to it.
  void reset_all();
  /// Fills the set with the whole universe (dense at every size).
  void set_all();
  /// Complement within the universe.
  void flip_all();

  /// Allocates now all the storage the set can ever use: the dense words,
  /// and room in the sparse id list, and in the calling thread's merge
  /// scratch, for the most ids a sparse set holds before it promotes (a
  /// union of two sparse sets, twice promote_threshold()). After it, no
  /// member operation on the set allocates on this thread, whatever
  /// populations it reaches (assigning a whole SlotSet replaces the
  /// storage), so a long-lived working set's steady state does not depend
  /// on which sizes it happened to hold before. About 3 · universe / 8
  /// bytes; a no-op up to kDenseUniverse positions, whose words the
  /// constructor allocates.
  void reserve_bounds();

  /// *this = other. Requires equal universes. Adopts the source
  /// representation.
  void copy_from(const SlotSet& other);
  /// *this = the members of a DynamicBitset over the same universe; picks
  /// the representation by the source's population.
  void copy_from(const DynamicBitset& other);

  SlotSet& operator|=(const SlotSet& other);
  SlotSet& operator&=(const SlotSet& other);
  /// *this = *this AND NOT other.
  SlotSet& subtract(const SlotSet& other);

  /// |*this AND other| without materializing the intersection. Dispatches
  /// on the representation pair: dense∩dense is the word-parallel popcount
  /// fold, sparse∩dense walks the sparse side testing bits, sparse∩sparse
  /// merges (galloping by binary search when one side is much smaller), so
  /// the cost is O(min population), never O(universe).
  [[nodiscard]] std::size_t intersection_count(const SlotSet& other) const;
  /// |*this AND other| against a plain DynamicBitset over the same universe.
  [[nodiscard]] std::size_t intersection_count(const DynamicBitset& other) const;

  /// True if *this and other share at least one member (early-exit).
  [[nodiscard]] bool intersects(const SlotSet& other) const;

  /// Calls fn(i) for every member i in increasing order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    if (dense_) {
      bits_.for_each(fn);
    } else {
      for (std::uint32_t m : sparse_) fn(static_cast<std::size_t>(m));
    }
  }

  /// Calls fn(i) for every member of (*this AND other), in increasing
  /// order, without materializing the intersection.
  template <typename Fn>
  void for_each_intersection(const SlotSet& other, Fn&& fn) const {
    if (!dense_) {
      for (std::uint32_t m : sparse_) {
        if (other.test(m)) fn(static_cast<std::size_t>(m));
      }
      return;
    }
    if (!other.dense_) {
      for (std::uint32_t m : other.sparse_) {
        if (bits_.test(m)) fn(static_cast<std::size_t>(m));
      }
      return;
    }
    const auto& a = bits_.words();
    const auto& b = other.bits_.words();
    for (std::size_t w = 0; w < a.size(); ++w) {
      Word word = a[w] & b[w];
      while (word != 0) {
        fn(w * DynamicBitset::kWordBits +
           static_cast<std::size_t>(std::countr_zero(word)));
        word &= word - 1;
      }
    }
  }

  /// Word w of the set as a bitset: members 64w .. 64w+63 as bits. O(1)
  /// dense; O(log count + members in the word) sparse.
  [[nodiscard]] Word word(std::size_t w) const {
    TTDC_CHECK_BOUNDS(w, (size_ + DynamicBitset::kWordBits - 1) / DynamicBitset::kWordBits);
    return dense_ ? bits_.word(w) : sparse_word(w);
  }

  /// Materializes a DynamicBitset copy (allocates; not for hot paths).
  [[nodiscard]] DynamicBitset to_dense_bitset() const;

  /// Members as a sorted vector.
  [[nodiscard]] std::vector<std::size_t> to_vector() const;

  /// Set equality — representation-transparent: a sparse and a dense set
  /// holding the same members compare equal.
  [[nodiscard]] bool operator==(const SlotSet& other) const;

  /// Folds the set into a running FNV-1a 64 state (util/hash.hpp): the
  /// representation, then the member ids (sparse) or the words (dense), so
  /// a dense set costs O(size/64) and a sparse one O(count). Not
  /// representation-transparent: it digests one stored set, for corruption
  /// checks, and equal sets held differently digest differently.
  [[nodiscard]] std::uint64_t fold_fnv1a64(std::uint64_t state) const;

 private:
  /// Index of pos in sparse_, or sparse_.size() when absent.
  [[nodiscard]] std::size_t sparse_find(std::uint32_t pos) const;
  [[nodiscard]] Word sparse_word(std::size_t w) const;
  /// The representation a set of `members` ids is built in from scratch.
  [[nodiscard]] bool dense_for(std::size_t members) const {
    return size_ <= kDenseUniverse || members > promote_threshold(size_);
  }
  void promote();
  void demote();
  void maybe_promote() {
    if (!dense_ && count_ > promote_threshold(size_)) promote();
  }
  void maybe_demote() {
    if (dense_ && count_ < demote_threshold(size_)) demote();
  }
  void ensure_dense_storage();

  std::size_t size_ = 0;
  std::size_t count_ = 0;  // == sparse_.size() when sparse
  bool dense_ = true;
  std::vector<std::uint32_t> sparse_;  // sorted, unique; valid when !dense_
  DynamicBitset bits_;                 // valid when dense_; storage kept across demotions
};

}  // namespace ttdc::util
