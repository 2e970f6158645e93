// DynamicBitset: pinned against std::set-based reference semantics.
#include "util/bitset.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "support/reference_schedule.hpp"
#include "util/rng.hpp"

namespace ttdc::util {
namespace {

TEST(Bitset, EmptyAfterConstruction) {
  DynamicBitset b(130);
  EXPECT_EQ(b.size(), 130u);
  EXPECT_EQ(b.count(), 0u);
  EXPECT_TRUE(b.none());
  EXPECT_FALSE(b.any());
  for (std::size_t i = 0; i < 130; ++i) EXPECT_FALSE(b.test(i));
}

TEST(Bitset, SetResetTest) {
  DynamicBitset b(100);
  b.set(0);
  b.set(63);
  b.set(64);
  b.set(99);
  EXPECT_EQ(b.count(), 4u);
  EXPECT_TRUE(b.test(63));
  EXPECT_TRUE(b.test(64));
  b.reset(63);
  EXPECT_FALSE(b.test(63));
  EXPECT_EQ(b.count(), 3u);
}

TEST(Bitset, InitializerListConstruction) {
  DynamicBitset b(10, {1, 3, 7});
  EXPECT_EQ(b.count(), 3u);
  EXPECT_TRUE(b.test(1));
  EXPECT_TRUE(b.test(3));
  EXPECT_TRUE(b.test(7));
  EXPECT_FALSE(b.test(0));
}

TEST(Bitset, SetAllRespectsUniverseBoundary) {
  // A non-multiple-of-64 size must not leak bits past the end.
  DynamicBitset b(70);
  b.set_all();
  EXPECT_EQ(b.count(), 70u);
  EXPECT_EQ(b.complement().count(), 0u);
}

TEST(Bitset, ComplementCountsAreExact) {
  DynamicBitset b(129, {0, 64, 128});
  const DynamicBitset c = b.complement();
  EXPECT_EQ(c.count(), 126u);
  EXPECT_FALSE(c.test(0));
  EXPECT_FALSE(c.test(64));
  EXPECT_FALSE(c.test(128));
  EXPECT_TRUE(c.test(1));
}

TEST(Bitset, FindFirstAndNextWalkMembers) {
  DynamicBitset b(200, {5, 63, 64, 150});
  EXPECT_EQ(b.find_first(), 5u);
  EXPECT_EQ(b.find_next(5), 63u);
  EXPECT_EQ(b.find_next(63), 64u);
  EXPECT_EQ(b.find_next(64), 150u);
  EXPECT_EQ(b.find_next(150), 200u);  // exhausted
  EXPECT_EQ(DynamicBitset(200).find_first(), 200u);
}

TEST(Bitset, ForEachVisitsInOrder) {
  DynamicBitset b(300, {2, 70, 140, 299});
  std::vector<std::size_t> seen;
  b.for_each([&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<std::size_t>{2, 70, 140, 299}));
  EXPECT_EQ(b.to_vector(), seen);
}

TEST(Bitset, ToStringRendersMembers) {
  EXPECT_EQ(DynamicBitset(10, {1, 4}).to_string(), "{1, 4}");
  EXPECT_EQ(DynamicBitset(10).to_string(), "{}");
}

// Randomized equivalence against std::set semantics over all operations.
TEST(Bitset, RandomizedAgainstSetReference) {
  Xoshiro256 rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t universe = 1 + static_cast<std::size_t>(rng.below(257));
    std::set<std::size_t> sa, sb;
    DynamicBitset a(universe), b(universe);
    for (std::size_t i = 0; i < universe; ++i) {
      if (rng.bernoulli(0.3)) {
        sa.insert(i);
        a.set(i);
      }
      if (rng.bernoulli(0.3)) {
        sb.insert(i);
        b.set(i);
      }
    }
    // Intersection / union / difference / xor sizes.
    std::vector<std::size_t> tmp;
    std::set_intersection(sa.begin(), sa.end(), sb.begin(), sb.end(), std::back_inserter(tmp));
    EXPECT_EQ((a & b).count(), tmp.size());
    EXPECT_EQ(a.intersection_count(b), tmp.size());
    EXPECT_EQ(a.intersects(b), !tmp.empty());
    tmp.clear();
    std::set_union(sa.begin(), sa.end(), sb.begin(), sb.end(), std::back_inserter(tmp));
    EXPECT_EQ((a | b).count(), tmp.size());
    tmp.clear();
    std::set_difference(sa.begin(), sa.end(), sb.begin(), sb.end(), std::back_inserter(tmp));
    EXPECT_EQ(difference(a, b).count(), tmp.size());
    EXPECT_EQ(a.difference_count(b), tmp.size());
    EXPECT_EQ(a.has_member_outside(b), !tmp.empty());
    tmp.clear();
    std::set_symmetric_difference(sa.begin(), sa.end(), sb.begin(), sb.end(),
                                  std::back_inserter(tmp));
    EXPECT_EQ((a ^ b).count(), tmp.size());
    // Subset relation.
    const bool subset = std::includes(sb.begin(), sb.end(), sa.begin(), sa.end());
    EXPECT_EQ(a.is_subset_of(b), subset);
  }
}

TEST(Bitset, FusedKernelsMatchComposedOps) {
  Xoshiro256 rng(7);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t universe = 1 + static_cast<std::size_t>(rng.below(200));
    DynamicBitset a(universe), b(universe), c(universe);
    for (std::size_t i = 0; i < universe; ++i) {
      if (rng.bernoulli(0.4)) a.set(i);
      if (rng.bernoulli(0.4)) b.set(i);
      if (rng.bernoulli(0.4)) c.set(i);
    }
    const DynamicBitset composed = difference(a & b, c);
    EXPECT_EQ(a.count_and_andnot(b, c), composed.count());
    EXPECT_EQ(a.any_and_andnot(b, c), composed.any());
  }
}

TEST(Bitset, EqualityAndHashConsistency) {
  DynamicBitset a(66, {0, 65});
  DynamicBitset b(66, {0, 65});
  DynamicBitset c(66, {0, 64});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  BitsetHash h;
  EXPECT_EQ(h(a), h(b));
}

TEST(Bitset, SubtractInPlace) {
  DynamicBitset a(10, {1, 2, 3});
  DynamicBitset b(10, {2, 5});
  a.subtract(b);
  EXPECT_EQ(a, DynamicBitset(10, {1, 3}));
}

// A rows x cols matrix: empty, one member, about `density` of the cells,
// or full.
enum class Fill { kEmpty, kSingle, kDensity, kFull };

std::vector<DynamicBitset> random_matrix(std::size_t rows, std::size_t cols, Fill fill,
                                         double density, Xoshiro256& rng) {
  std::vector<DynamicBitset> m(rows, DynamicBitset(cols));
  switch (fill) {
    case Fill::kEmpty:
      break;
    case Fill::kSingle:
      m[rng.below(rows)].set(rng.below(cols));
      break;
    case Fill::kDensity:
      for (auto& row : m) {
        for (std::size_t c = 0; c < cols; ++c) {
          if (rng.bernoulli(density)) row.set(c);
        }
      }
      break;
    case Fill::kFull:
      for (auto& row : m) row.set_all();
      break;
  }
  return m;
}

// Ragged shapes straddle every word and block boundary; the densities reach
// both the scatter path (empty, single, ~1%) and the 64x64 block path
// (~30%, full).
TEST(Bitset, TransposeMatchesPerBitReferenceAndIsAnInvolution) {
  Xoshiro256 rng(11);
  const std::size_t dims[] = {1, 63, 64, 65, 127, 129, 1000};
  const std::pair<Fill, double> fills[] = {{Fill::kEmpty, 0.0},
                                           {Fill::kSingle, 0.0},
                                           {Fill::kDensity, 0.01},
                                           {Fill::kDensity, 0.3},
                                           {Fill::kFull, 1.0}};
  for (const std::size_t rows : dims) {
    for (const std::size_t cols : dims) {
      for (const auto& [fill, density] : fills) {
        SCOPED_TRACE(testing::Message() << rows << "x" << cols << " fill "
                                        << static_cast<int>(fill) << " density " << density);
        const std::vector<DynamicBitset> m = random_matrix(rows, cols, fill, density, rng);
        const std::vector<DynamicBitset> t = DynamicBitset::transpose(m, cols);
        ASSERT_EQ(t.size(), cols);
        ASSERT_TRUE(t == core::reference_transpose(m, cols));
        ASSERT_TRUE(DynamicBitset::transpose(t, rows) == m);
      }
    }
  }
}

TEST(Bitset, TransposeOfDegenerateShapes) {
  // No rows: `cols` empty columns over an empty universe.
  const std::vector<DynamicBitset> none = DynamicBitset::transpose({}, 3);
  ASSERT_EQ(none.size(), 3u);
  for (const auto& col : none) EXPECT_EQ(col.size(), 0u);
  // No columns: nothing to transpose into.
  const std::vector<DynamicBitset> empty_rows(5, DynamicBitset(0));
  EXPECT_TRUE(DynamicBitset::transpose(empty_rows, 0).empty());
}

}  // namespace
}  // namespace ttdc::util
