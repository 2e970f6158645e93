#include "util/slot_set.hpp"

#include <algorithm>
#include <functional>
#include <utility>

#include "util/hash.hpp"

namespace ttdc::util {
namespace {

// Scratch buffers for sparse merges. thread_local so runner worker threads
// (each owning their own simulators) never contend; buffers reach steady
// capacity after warm-up and stop allocating.
std::vector<std::uint32_t>& merge_scratch() {
  static thread_local std::vector<std::uint32_t> scratch;
  return scratch;
}

}  // namespace

SlotSet::SlotSet(std::size_t universe_size, std::vector<std::uint32_t> sorted_members)
    : size_(universe_size), count_(sorted_members.size()) {
  TTDC_DCHECK(std::adjacent_find(sorted_members.begin(), sorted_members.end(),
                                 std::greater_equal<>()) == sorted_members.end() &&
                  (sorted_members.empty() || sorted_members.back() < size_),
              "SlotSet: ids not strictly increasing below ", size_);
  dense_ = dense_for(count_);
  if (dense_) {
    bits_ = DynamicBitset(size_);
    for (std::uint32_t m : sorted_members) bits_.set(m);
  } else {
    sparse_ = std::move(sorted_members);
  }
}

std::size_t SlotSet::sparse_find(std::uint32_t pos) const {
  const auto it = std::lower_bound(sparse_.begin(), sparse_.end(), pos);
  if (it != sparse_.end() && *it == pos) {
    return static_cast<std::size_t>(it - sparse_.begin());
  }
  return sparse_.size();
}

SlotSet::Word SlotSet::sparse_word(std::size_t w) const {
  const std::size_t lo = w * DynamicBitset::kWordBits;
  Word out = 0;
  for (auto it = std::lower_bound(sparse_.begin(), sparse_.end(), lo);
       it != sparse_.end() && *it < lo + DynamicBitset::kWordBits; ++it) {
    out |= Word{1} << (*it - lo);
  }
  return out;
}

void SlotSet::ensure_dense_storage() {
  if (bits_.size() != size_) {
    bits_ = DynamicBitset(size_);
  } else {
    bits_.reset_all();
  }
}

void SlotSet::promote() {
  ensure_dense_storage();
  for (std::uint32_t m : sparse_) bits_.set(m);
  sparse_.clear();  // capacity retained for the next demotion
  dense_ = true;
}

void SlotSet::demote() {
  sparse_.clear();
  bits_.for_each([&](std::size_t m) { sparse_.push_back(static_cast<std::uint32_t>(m)); });
  dense_ = false;
  count_ = sparse_.size();
}

void SlotSet::set(std::size_t pos) {
  TTDC_CHECK_BOUNDS(pos, size_);
  if (dense_) {
    if (!bits_.test(pos)) {
      bits_.set(pos);
      ++count_;
    }
    return;
  }
  const auto p = static_cast<std::uint32_t>(pos);
  if (sparse_.empty() || sparse_.back() < p) {  // ascending-fill fast path
    sparse_.push_back(p);
  } else {
    const auto it = std::lower_bound(sparse_.begin(), sparse_.end(), p);
    if (it != sparse_.end() && *it == p) return;
    sparse_.insert(it, p);
  }
  ++count_;
  maybe_promote();
}

void SlotSet::reset(std::size_t pos) {
  TTDC_CHECK_BOUNDS(pos, size_);
  if (dense_) {
    if (bits_.test(pos)) {
      bits_.reset(pos);
      --count_;
      maybe_demote();
    }
    return;
  }
  const std::size_t idx = sparse_find(static_cast<std::uint32_t>(pos));
  if (idx == sparse_.size()) return;
  sparse_.erase(sparse_.begin() + static_cast<std::ptrdiff_t>(idx));
  --count_;
}

void SlotSet::reset_all() {
  if (dense_for(0)) {
    bits_.reset_all();
  } else {
    dense_ = false;
    sparse_.clear();
  }
  count_ = 0;
}

void SlotSet::set_all() {
  // Dense at every size: above kDenseUniverse positions the whole
  // universe exceeds the promote threshold.
  if (!dense_) {
    ensure_dense_storage();
    sparse_.clear();
    dense_ = true;
  }
  bits_.set_all();
  count_ = size_;
}

void SlotSet::flip_all() {
  const std::size_t flipped = size_ - count_;
  if (!dense_) promote();
  bits_.flip_all();
  count_ = flipped;
  maybe_demote();
}

void SlotSet::reserve_bounds() {
  if (size_ <= kDenseUniverse) return;
  if (bits_.size() != size_) bits_ = DynamicBitset(size_);
  const std::size_t most = 2 * promote_threshold(size_);
  sparse_.reserve(most);
  merge_scratch().reserve(most);
}

void SlotSet::copy_from(const SlotSet& other) {
  TTDC_ASSERT(size_ == other.size_, "SlotSet::copy_from universe mismatch: ", size_,
              " vs ", other.size_);
  if (other.dense_) {
    if (bits_.size() != size_) bits_ = DynamicBitset(size_);
    bits_.copy_from(other.bits_);
    dense_ = true;
    sparse_.clear();
  } else {
    sparse_ = other.sparse_;  // assign reuses capacity
    dense_ = false;
  }
  count_ = other.count_;
}

void SlotSet::copy_from(const DynamicBitset& other) {
  TTDC_ASSERT(size_ == other.size(), "SlotSet::copy_from universe mismatch: ", size_,
              " vs ", other.size());
  const std::size_t c = other.count();
  if (dense_for(c)) {
    if (bits_.size() != size_) bits_ = DynamicBitset(size_);
    bits_.copy_from(other);
    dense_ = true;
    sparse_.clear();
  } else {
    dense_ = false;
    sparse_.clear();
    other.for_each([&](std::size_t m) { sparse_.push_back(static_cast<std::uint32_t>(m)); });
  }
  count_ = c;
}

SlotSet& SlotSet::operator|=(const SlotSet& other) {
  TTDC_ASSERT(size_ == other.size_, "SlotSet::operator|= universe mismatch");
  if (dense_) {
    if (other.dense_) {
      bits_ |= other.bits_;
      count_ = bits_.count();
    } else {
      for (std::uint32_t m : other.sparse_) {
        if (!bits_.test(m)) {
          bits_.set(m);
          ++count_;
        }
      }
    }
    return *this;
  }
  if (other.dense_) {
    // Adopt dense: the union is at least as populous as the dense side.
    promote();
    bits_ |= other.bits_;
    count_ = bits_.count();
    maybe_demote();
    return *this;
  }
  auto& scratch = merge_scratch();
  scratch.clear();
  scratch.reserve(sparse_.size() + other.sparse_.size());
  std::set_union(sparse_.begin(), sparse_.end(), other.sparse_.begin(), other.sparse_.end(),
                 std::back_inserter(scratch));
  // Copy back rather than swap buffers: a swap would hand this set's buffer
  // to the shared scratch and shuffle capacities between sets, so a set
  // could keep meeting a too-small buffer (and allocating) long after its
  // own population peaked.
  sparse_.assign(scratch.begin(), scratch.end());
  count_ = sparse_.size();
  maybe_promote();
  return *this;
}

SlotSet& SlotSet::operator&=(const SlotSet& other) {
  TTDC_ASSERT(size_ == other.size_, "SlotSet::operator&= universe mismatch");
  if (!dense_) {
    // Sparse side filters in place against either representation.
    auto out = sparse_.begin();
    for (std::uint32_t m : sparse_) {
      if (other.test(m)) *out++ = m;
    }
    sparse_.erase(out, sparse_.end());
    count_ = sparse_.size();
    return *this;
  }
  if (other.dense_) {
    bits_ &= other.bits_;
    count_ = bits_.count();
    maybe_demote();
    return *this;
  }
  // Dense ∩ sparse (so a universe above kDenseUniverse): the result is a
  // subset of the sparse side, so at most promote_threshold members — go
  // sparse with an O(|other|) rebuild.
  sparse_.clear();
  for (std::uint32_t m : other.sparse_) {
    if (bits_.test(m)) sparse_.push_back(m);
  }
  dense_ = false;
  count_ = sparse_.size();
  return *this;
}

SlotSet& SlotSet::subtract(const SlotSet& other) {
  TTDC_ASSERT(size_ == other.size_, "SlotSet::subtract universe mismatch");
  if (!dense_) {
    auto out = sparse_.begin();
    for (std::uint32_t m : sparse_) {
      if (!other.test(m)) *out++ = m;
    }
    sparse_.erase(out, sparse_.end());
    count_ = sparse_.size();
    return *this;
  }
  if (other.dense_) {
    bits_.subtract(other.bits_);
    count_ = bits_.count();
    maybe_demote();
    return *this;
  }
  for (std::uint32_t m : other.sparse_) {
    if (bits_.test(m)) {
      bits_.reset(m);
      --count_;
    }
  }
  maybe_demote();
  return *this;
}

std::size_t SlotSet::intersection_count(const SlotSet& other) const {
  TTDC_ASSERT(size_ == other.size_, "SlotSet::intersection_count universe mismatch");
  if (dense_ && other.dense_) return bits_.intersection_count(other.bits_);
  if (!dense_ && other.dense_) {
    std::size_t c = 0;
    for (std::uint32_t m : sparse_) c += other.bits_.test(m) ? 1 : 0;
    return c;
  }
  if (dense_) {
    std::size_t c = 0;
    for (std::uint32_t m : other.sparse_) c += bits_.test(m) ? 1 : 0;
    return c;
  }
  // Sparse ∩ sparse: gallop (binary-search the smaller side into the
  // larger) when heavily skewed, linear merge otherwise.
  const std::vector<std::uint32_t>& small = sparse_.size() <= other.sparse_.size()
                                                ? sparse_
                                                : other.sparse_;
  const std::vector<std::uint32_t>& large = sparse_.size() <= other.sparse_.size()
                                                ? other.sparse_
                                                : sparse_;
  std::size_t c = 0;
  if (small.size() * 8 < large.size()) {
    for (std::uint32_t m : small) {
      c += std::binary_search(large.begin(), large.end(), m) ? 1 : 0;
    }
    return c;
  }
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < small.size() && j < large.size()) {
    if (small[i] < large[j]) {
      ++i;
    } else if (large[j] < small[i]) {
      ++j;
    } else {
      ++c;
      ++i;
      ++j;
    }
  }
  return c;
}

std::size_t SlotSet::intersection_count(const DynamicBitset& other) const {
  TTDC_ASSERT(size_ == other.size(), "SlotSet::intersection_count universe mismatch");
  if (dense_) return bits_.intersection_count(other);
  std::size_t c = 0;
  for (std::uint32_t m : sparse_) c += other.test(m) ? 1 : 0;
  return c;
}

bool SlotSet::intersects(const SlotSet& other) const {
  TTDC_ASSERT(size_ == other.size_, "SlotSet::intersects universe mismatch");
  if (dense_ && other.dense_) return bits_.intersects(other.bits_);
  if (!dense_ && !other.dense_) {
    // Sorted merge with early exit, O(|a| + |b|). The advance is
    // branch-free: which side is smaller is a coin flip for interleaved
    // sets, and mispredicting it would cost more than the compare.
    const std::vector<std::uint32_t>& a = sparse_;
    const std::vector<std::uint32_t>& b = other.sparse_;
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < a.size() && j < b.size()) {
      if (a[i] == b[j]) return true;
      const bool a_smaller = a[i] < b[j];
      i += a_smaller ? 1 : 0;
      j += a_smaller ? 0 : 1;
    }
    return false;
  }
  const SlotSet& sparse_side = dense_ ? other : *this;
  const DynamicBitset& bits = dense_ ? bits_ : other.bits_;
  for (std::uint32_t m : sparse_side.sparse_) {
    if (bits.test(m)) return true;
  }
  return false;
}

DynamicBitset SlotSet::to_dense_bitset() const {
  DynamicBitset out(size_);
  if (dense_) {
    out.copy_from(bits_);
  } else {
    for (std::uint32_t m : sparse_) out.set(m);
  }
  return out;
}

std::vector<std::size_t> SlotSet::to_vector() const {
  std::vector<std::size_t> out;
  out.reserve(count_);
  for_each([&](std::size_t m) { out.push_back(m); });
  return out;
}

bool SlotSet::operator==(const SlotSet& other) const {
  if (size_ != other.size_) return false;
  if (dense_ && other.dense_) return bits_ == other.bits_;
  if (count() != other.count()) return false;
  if (!dense_ && !other.dense_) return sparse_ == other.sparse_;
  const SlotSet& s = dense_ ? other : *this;
  const SlotSet& d = dense_ ? *this : other;
  for (std::uint32_t m : s.sparse_) {
    if (!d.bits_.test(m)) return false;
  }
  return true;
}

std::uint64_t SlotSet::fold_fnv1a64(std::uint64_t state) const {
  state = fnv1a64_u64(state, dense_ ? 1 : 0);
  if (dense_) {
    for (const Word w : bits_.words()) state = fnv1a64_u64(state, w);
  } else {
    for (const std::uint32_t m : sparse_) state = fnv1a64_u64(state, m);
  }
  return state;
}

}  // namespace ttdc::util
