// util::SlotSet — sparse/dense node sets (DESIGN.md §13).
//
// The central property: a SlotSet is semantically a set over [0, n)
// regardless of representation, and the representation follows one rule
// inside SlotSet (dense up to 256 positions, by population above). The
// randomized tests drive long operation sequences through a SlotSet and a
// reference DynamicBitset in lockstep and assert element-for-element
// equality after every step — including sequences engineered to oscillate
// across the promote/demote hysteresis band, where a representation bug
// would show up as members appearing or vanishing at the switch.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "util/bitset.hpp"
#include "util/rng.hpp"
#include "util/slot_set.hpp"

namespace ttdc::util {
namespace {

void expect_matches(const SlotSet& s, const DynamicBitset& ref, const char* what) {
  ASSERT_EQ(s.size(), ref.size()) << what;
  EXPECT_EQ(s.count(), ref.count()) << what;
  for (std::size_t v = 0; v < ref.size(); ++v) {
    ASSERT_EQ(s.test(v), ref.test(v)) << what << " at element " << v;
  }
  // for_each must enumerate exactly the members, in increasing order.
  std::size_t prev = 0;
  bool first = true;
  std::size_t seen = 0;
  s.for_each([&](std::size_t v) {
    EXPECT_TRUE(ref.test(v)) << what << " for_each produced non-member " << v;
    if (!first) {
      EXPECT_LT(prev, v) << what << " for_each out of order";
    }
    prev = v;
    first = false;
    ++seen;
  });
  EXPECT_EQ(seen, ref.count()) << what;
}

/// A set over a universe above SlotSet::kDenseUniverse holding `members`,
/// whose count lies inside the hysteresis band, stored as asked: sparse by
/// adding them, dense by overfilling past the promote threshold and
/// removing the extras again.
SlotSet in_band(std::size_t n, const std::vector<std::size_t>& members, bool dense) {
  SlotSet s(n);
  for (std::size_t v : members) s.set(v);
  if (dense) {
    std::vector<std::size_t> extras;
    for (std::size_t v = 0; s.count() <= SlotSet::promote_threshold(n); ++v) {
      if (!s.test(v)) {
        s.set(v);
        extras.push_back(v);
      }
    }
    for (std::size_t v : extras) s.reset(v);
  }
  EXPECT_EQ(s.is_dense(), dense) << "count " << s.count() << " outside the band at n=" << n;
  return s;
}

TEST(SlotSet, StartsSparseAndPromotesAtThreshold) {
  const std::size_t n = 4096;
  SlotSet s(n);
  EXPECT_FALSE(s.is_dense());
  const std::size_t promote = SlotSet::promote_threshold(n);
  for (std::size_t i = 0; i <= promote; ++i) s.set(i * 2);
  EXPECT_TRUE(s.is_dense());  // count == promote + 1 > promote
  EXPECT_EQ(s.count(), promote + 1);
}

TEST(SlotSet, HysteresisBandIsSticky) {
  const std::size_t n = 4096;
  const std::size_t promote = SlotSet::promote_threshold(n);
  const std::size_t demote = SlotSet::demote_threshold(n);
  ASSERT_LT(demote, promote);
  SlotSet s(n);
  DynamicBitset ref(n);
  for (std::size_t i = 0; i <= promote; ++i) {
    s.set(i);
    ref.set(i);
  }
  ASSERT_TRUE(s.is_dense());
  // Walk the count down through the band one removal at a time: the set
  // must stay dense until strictly below the demote threshold, and stay
  // correct at every step.
  for (std::size_t i = promote; ; --i) {
    s.reset(i);
    ref.reset(i);
    expect_matches(s, ref, "hysteresis walk down");
    if (s.count() >= demote) {
      EXPECT_TRUE(s.is_dense()) << "demoted inside the band at count " << s.count();
    } else {
      EXPECT_FALSE(s.is_dense()) << "still dense below demote at count " << s.count();
      break;
    }
    ASSERT_GT(i, 0u);
  }
  // And back up through the band: sparse is sticky until strictly above
  // the promote threshold.
  for (std::size_t i = 0; i <= promote; ++i) {
    if (!ref.test(i)) {
      s.set(i);
      ref.set(i);
      expect_matches(s, ref, "hysteresis walk up");
      if (s.count() <= promote) {
        EXPECT_FALSE(s.is_dense()) << "promoted inside the band at count " << s.count();
      }
    }
  }
  EXPECT_TRUE(s.is_dense());
}

// The one representation rule for small universes: up to kDenseUniverse
// = 256 positions a set is dense from every constructor and stays dense
// through every operation, its count exact throughout; at 257 it starts
// sparse.
TEST(SlotSet, SmallUniversesAreDenseFromEveryPath) {
  ASSERT_EQ(SlotSet::kDenseUniverse, 256u);
  EXPECT_TRUE(SlotSet().is_dense());
  for (const std::size_t n : {1u, 64u, 255u, 256u}) {
    SCOPED_TRACE(::testing::Message() << "n=" << n);
    const std::size_t last = n - 1;
    EXPECT_TRUE(SlotSet(n).is_dense());
    EXPECT_TRUE(SlotSet(n, {last}).is_dense());
    EXPECT_TRUE(SlotSet(n, std::vector<std::uint32_t>{}).is_dense());
    EXPECT_TRUE(SlotSet(n, std::vector<std::uint32_t>{0}).is_dense());

    SlotSet s(n);
    DynamicBitset ref(n);
    const auto check = [&](const char* what) {
      EXPECT_TRUE(s.is_dense()) << what;
      expect_matches(s, ref, what);
    };
    s.set(last);
    ref.set(last);
    check("set");
    s.reset(last);
    ref.reset(last);
    check("reset to empty");
    s.set_all();
    ref.set_all();
    check("set_all");
    s.reset_all();
    ref.reset_all();
    check("reset_all");
    s.flip_all();
    ref.flip_all();
    check("flip_all from empty");
    s.flip_all();
    ref.flip_all();
    check("flip_all to empty");

    const SlotSet one(n, {0});
    const DynamicBitset ref_one(n, {0});
    s.copy_from(one);
    ref.copy_from(ref_one);
    check("copy_from(SlotSet)");
    s.copy_from(DynamicBitset(n));
    ref.reset_all();
    check("copy_from(empty DynamicBitset)");
    s.copy_from(ref_one);
    ref.copy_from(ref_one);
    check("copy_from(DynamicBitset)");
    s &= SlotSet(n);
    ref.reset_all();
    check("&= empty");
    s |= one;
    ref |= ref_one;
    check("|=");
    s.subtract(one);
    ref.subtract(ref_one);
    check("subtract");
    s.set_all();
    ref.set_all();
    s &= one;
    ref &= ref_one;
    check("&=");
  }
  const std::size_t big = SlotSet::kDenseUniverse + 1;
  EXPECT_FALSE(SlotSet(big).is_dense());
  EXPECT_FALSE(SlotSet(big, {0}).is_dense());
  EXPECT_FALSE(SlotSet(big, std::vector<std::uint32_t>{0}).is_dense());
  SlotSet s(big);
  s.set_all();
  EXPECT_TRUE(s.is_dense());
  s.reset_all();
  EXPECT_FALSE(s.is_dense());
  s.copy_from(DynamicBitset(big, {0}));
  EXPECT_FALSE(s.is_dense());
}

TEST(SlotSet, EqualityIsRepresentationTransparent) {
  // n = 1024: the band is [16, 32] members.
  std::vector<std::size_t> members = {1, 64, 900};
  for (std::size_t v = 100; members.size() < 20; v += 37) members.push_back(v);
  const SlotSet sparse = in_band(1024, members, false);
  SlotSet dense = in_band(1024, members, true);
  ASSERT_FALSE(sparse.is_dense());
  ASSERT_TRUE(dense.is_dense());
  EXPECT_TRUE(sparse == dense);
  EXPECT_TRUE(dense == sparse);
  dense.reset(64);
  EXPECT_FALSE(sparse == dense);
}

TEST(SlotSet, CopyFromAdoptsSourceRepresentation) {
  SlotSet sparse(512, {2, 3});
  SlotSet big(512);
  for (std::size_t i = 0; i < 200; ++i) big.set(i);
  ASSERT_TRUE(big.is_dense());
  SlotSet s(512);
  s.copy_from(big);
  EXPECT_TRUE(s.is_dense());
  EXPECT_TRUE(s == big);
  s.copy_from(sparse);
  EXPECT_FALSE(s.is_dense());
  EXPECT_TRUE(s == sparse);
}

TEST(SlotSet, IntersectionCountAcrossAllRepresentationPairs) {
  // n = 4096: the band is [64, 128] members. a: {0, 40, 80, ...} (103
  // members); b: {0, 60, 120, ...} (69); intersection = multiples of 120.
  const std::size_t n = 4096;
  const auto build = [n](std::size_t stride, bool dense) {
    std::vector<std::size_t> members;
    for (std::size_t v = 0; v < n; v += stride) members.push_back(v);
    return in_band(n, members, dense);
  };
  const std::size_t expected = (n + 119) / 120;  // |multiples of lcm(40,60) in [0,n)|
  for (bool a_dense : {false, true}) {
    for (bool b_dense : {false, true}) {
      const SlotSet a = build(40, a_dense);
      const SlotSet b = build(60, b_dense);
      EXPECT_EQ(a.intersection_count(b), expected)
          << "a_dense=" << a_dense << " b_dense=" << b_dense;
      EXPECT_EQ(b.intersection_count(a), expected);
      EXPECT_TRUE(a.intersects(b));
      // And against a plain DynamicBitset.
      EXPECT_EQ(a.intersection_count(b.to_dense_bitset()), expected);
    }
  }
  SlotSet evens(n), odds(n);
  for (std::size_t v = 0; v < n; v += 2) evens.set(v);
  for (std::size_t v = 1; v < n; v += 2) odds.set(v);
  EXPECT_EQ(evens.intersection_count(odds), 0u);
  EXPECT_FALSE(evens.intersects(odds));
}

TEST(SlotSet, ForEachIntersectionMatchesMaterialized) {
  util::Xoshiro256 rng(99);
  const std::size_t n = 777;
  for (int rep = 0; rep < 8; ++rep) {
    SlotSet a(n), b(n);
    DynamicBitset ra(n), rb(n);
    const double pa = rep % 2 == 0 ? 0.01 : 0.4;  // sparse and dense mixes
    const double pb = rep % 3 == 0 ? 0.02 : 0.5;
    for (std::size_t v = 0; v < n; ++v) {
      if (rng.bernoulli(pa)) { a.set(v); ra.set(v); }
      if (rng.bernoulli(pb)) { b.set(v); rb.set(v); }
    }
    DynamicBitset expected = ra & rb;
    std::size_t count = 0;
    a.for_each_intersection(b, [&](std::size_t v) {
      EXPECT_TRUE(expected.test(v));
      ++count;
    });
    EXPECT_EQ(count, expected.count());
  }
}

// The randomized lockstep property test: every mutating operation applied
// identically to a SlotSet and a reference DynamicBitset, equality checked
// after each.
TEST(SlotSet, RandomOperationSequencesMatchReferenceBitset) {
  for (const std::size_t n : {1u, 9u, 64u, 65u, 700u, 5000u}) {
    util::Xoshiro256 rng(0xBADC0DE + n);
    SlotSet s(n);
    DynamicBitset ref(n);
    SlotSet other(n);
    DynamicBitset ref_other(n);
    for (int step = 0; step < 400; ++step) {
      const std::uint64_t op = rng.below(12);
      // Refresh `other` every few steps so binary ops see varied densities.
      if (step % 7 == 0) {
        other.reset_all();
        ref_other.reset_all();
        const double p = rng.uniform01() * (step % 14 == 0 ? 0.05 : 0.8);
        for (std::size_t v = 0; v < n; ++v) {
          if (rng.bernoulli(p)) {
            other.set(v);
            ref_other.set(v);
          }
        }
      }
      switch (op) {
        case 0:
        case 1:
        case 2: {  // set (weighted: grows the set across thresholds)
          const auto v = static_cast<std::size_t>(rng.below(n));
          s.set(v);
          ref.set(v);
          break;
        }
        case 3:
        case 4: {  // reset
          const auto v = static_cast<std::size_t>(rng.below(n));
          s.reset(v);
          ref.reset(v);
          break;
        }
        case 5:
          s |= other;
          ref |= ref_other;
          break;
        case 6:
          s &= other;
          ref &= ref_other;
          break;
        case 7:
          s.subtract(other);
          ref.subtract(ref_other);
          break;
        case 8:
          s.flip_all();
          ref.flip_all();
          break;
        case 9:
          s.copy_from(other);
          ref.copy_from(ref_other);
          break;
        case 10:
          EXPECT_EQ(s.intersection_count(other), ref.intersection_count(ref_other));
          EXPECT_EQ(s.intersects(other), ref.intersects(ref_other));
          break;
        default:
          if (step % 50 == 13) {
            s.reset_all();
            ref.reset_all();
          } else {
            s.set_all();
            ref.set_all();
          }
          break;
      }
      ASSERT_NO_FATAL_FAILURE(expect_matches(s, ref, "random sequence"))
          << "n=" << n << " step=" << step << " op=" << op;
      EXPECT_EQ(s.to_vector(), ref.to_vector());
      EXPECT_TRUE(s.to_dense_bitset() == ref);
    }
  }
}

TEST(SlotSet, CopyFromDynamicBitsetPicksRepresentationByPopulation) {
  const std::size_t n = 4096;
  DynamicBitset few(n);
  few.set(17);
  few.set(1000);
  DynamicBitset many(n);
  for (std::size_t v = 0; v < n; v += 2) many.set(v);
  SlotSet s(n);
  s.copy_from(few);
  EXPECT_FALSE(s.is_dense());
  expect_matches(s, few, "copy_from sparse bitset");
  s.copy_from(many);
  EXPECT_TRUE(s.is_dense());
  expect_matches(s, many, "copy_from dense bitset");
}

// Built from sorted ids (Construct's windows), a set takes the
// representation copy_from would, and word() reads either representation
// as the bitset's words (what DynamicBitset::transpose consumes).
TEST(SlotSet, BuiltFromSortedIdsPicksRepresentationByPopulation) {
  const std::size_t n = 4096;  // promote threshold max(16, 4096/32) = 128
  // Members on both sides of word boundaries, and none at a word's bit 0
  // below a member at the next word's bit 0 (64, 128).
  const DynamicBitset few(n, {1, 17, 63, 64, 127, 128, 1000, 4095});
  DynamicBitset many(n);
  for (std::size_t v = 0; v < n; v += 3) many.set(v);
  const DynamicBitset* const refs[] = {&few, &many};
  for (const DynamicBitset* ref : refs) {
    const bool dense = ref == &many;
    std::vector<std::uint32_t> ids;
    ref->for_each([&](std::size_t v) { ids.push_back(static_cast<std::uint32_t>(v)); });
    SlotSet from_bits(n);
    from_bits.copy_from(*ref);
    const SlotSet from_ids(n, ids);
    EXPECT_EQ(from_bits.is_dense(), dense);
    EXPECT_EQ(from_ids.is_dense(), dense);
    expect_matches(from_bits, *ref, "from bitset");
    expect_matches(from_ids, *ref, "from sorted ids");
    for (std::size_t w = 0; w < ref->words().size(); ++w) {
      ASSERT_EQ(from_bits.word(w), ref->word(w)) << "word " << w;
      ASSERT_EQ(from_ids.word(w), ref->word(w)) << "word " << w;
    }
  }
}

}  // namespace
}  // namespace ttdc::util
