// core::FrameCounter and core::frame_counts (DESIGN.md §8): a schedule's
// per-node counts over a stretch of its frame, read block by block, held to
// the pool walk of tests/support/reference_frame_counts.hpp. Construct's
// output under both division policies, from line-8 padded base slots to
// k_R ≥ 3 windows, dense and sparse; the bench/e2e `metro` recipe;
// schedules with one set per slot; and pooled schedules built block by
// block, whose blocks cover V or leave nodes out, with repeated, nested and
// overlapping windows. The random draws are counted over the whole frame
// and over stretches that start and end inside rows, at row seams and at
// block seams, one-slot ones included, by one counter reused across
// stretches and node counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "combinatorics/params.hpp"
#include "core/builders.hpp"
#include "core/construct.hpp"
#include "core/direct.hpp"
#include "core/frame_counts.hpp"
#include "core/schedule.hpp"
#include "core/serialize.hpp"
#include "core/throughput.hpp"
#include "support/reference_frame_counts.hpp"
#include "util/rng.hpp"
#include "util/slot_set.hpp"

namespace ttdc::core {
namespace {

Schedule base_schedule(std::size_t n, std::size_t d) {
  return non_sleeping_from_family(comb::build_plan(comb::best_plan(n, d), n));
}

void expect_same_counts(const FrameCounts& got, const FrameCounts& expected) {
  EXPECT_EQ(got.listen, expected.listen);
  EXPECT_EQ(got.wakes, expected.wakes);
  EXPECT_EQ(got.transmit, expected.transmit);
}

void expect_matches_pool_walk(const Schedule& s) {
  expect_same_counts(frame_counts(s), reference_frame_counts(s, 0, s.frame_length()));
}

/// Where a stretch end can lie: inside a row, at a seam between two rows of
/// one block, or at a block seam (the frame's ends count as block seams).
enum Seam : std::size_t { kInsideRow, kRowSeam, kBlockSeam, kSeamKinds };

/// The seam kind of each position 0..L, by the rows and blocks that
/// FrameCounter reads over the whole frame.
std::vector<Seam> seams_of(const Schedule& s) {
  const std::size_t frame = s.frame_length();
  const auto t_of = s.transmit_index();
  const auto r_of = s.receive_index();
  std::vector<Seam> seams(frame + 1, kInsideRow);
  seams[0] = seams[frame] = kBlockSeam;
  std::size_t row = 0;  // the start of the row before p
  for (std::size_t p = 1; p < frame; ++p) {
    if (t_of[p] == t_of[p - 1]) continue;
    std::size_t next = p;
    while (next < frame && t_of[next] == t_of[p]) ++next;
    const bool same_block = next - p == p - row &&
                            std::equal(r_of.begin() + p, r_of.begin() + next, r_of.begin() + row);
    seams[p] = same_block ? kRowSeam : kBlockSeam;
    row = p;
  }
  return seams;
}

/// The drawn stretches expect_stretches_match_pool_walk() counted, by the
/// seam kind of their starts and ends (the frame's ends left out).
struct StretchKinds {
  std::size_t starts[kSeamKinds] = {};
  std::size_t ends[kSeamKinds] = {};
};

/// Holds `counter` to the pool walk over [0, L), one one-slot stretch and
/// six stretches whose ends are drawn by seam kind.
void expect_stretches_match_pool_walk(const Schedule& s, FrameCounter& counter,
                                      util::Xoshiro256& rng, StretchKinds& kinds) {
  const std::size_t frame = s.frame_length();
  const std::vector<Seam> seams = seams_of(s);
  std::vector<std::size_t> at[kSeamKinds];
  for (std::size_t p = 0; p <= frame; ++p) at[seams[p]].push_back(p);
  const auto expect_stretch = [&](std::size_t first, std::size_t end) {
    SCOPED_TRACE("stretch [" + std::to_string(first) + ", " + std::to_string(end) + ")");
    expect_same_counts(counter.count(s, first, end), reference_frame_counts(s, first, end));
  };
  expect_stretch(0, frame);
  const std::size_t slot = rng.below(frame);
  expect_stretch(slot, slot + 1);
  const auto draw = [&] {
    const std::vector<std::size_t>& pool = at[rng.below(kSeamKinds)];
    return pool.empty() ? rng.below(frame + 1) : pool[rng.below(pool.size())];
  };
  for (int k = 0; k < 6; ++k) {
    std::size_t first = draw(), end = draw();
    if (first == end) continue;
    if (first > end) std::swap(first, end);
    if (first > 0) ++kinds.starts[seams[first]];
    if (end < frame) ++kinds.ends[seams[end]];
    expect_stretch(first, end);
  }
}

void expect_stretch_coverage(const StretchKinds& kinds, std::size_t cases) {
  for (const Seam seam : {kInsideRow, kRowSeam, kBlockSeam}) {
    SCOPED_TRACE("seam kind " + std::to_string(seam));
    EXPECT_GT(kinds.starts[seam], cases / 2);
    EXPECT_GT(kinds.ends[seam], cases / 2);
  }
}

TEST(FrameCounts, RandomConstructMatchesPoolWalk) {
  constexpr int kCases = 300;
  std::size_t padded = 0, wide = 0, stacked = 0, large = 0;
  std::size_t policies[2] = {0, 0};
  util::Xoshiro256 rng(0xf4a3e5c0u);
  util::Xoshiro256 stretch_rng(0x57e7c4u);  // a stream of its own keeps the draws below
  FrameCounter counter;
  StretchKinds kinds;
  const auto pick = [&](std::uint64_t lo, std::uint64_t hi) { return lo + rng.below(hi - lo + 1); };
  for (int c = 0; c < kCases; ++c) {
    std::size_t n = 0, d = 0, alpha_t = 0, alpha_r = 0;
    if (rng.below(10) == 0) {
      // More than 256 nodes, so sets follow their population: αR down to
      // 8, within the promote threshold, keeps some receive windows sparse.
      n = pick(util::SlotSet::kDenseUniverse + 1, 320);
      d = pick(2, 3);
      alpha_t = pick(8, 16);
      alpha_r = pick(8, n / 2);
      ++large;
    } else {
      n = pick(6, 48);
      d = pick(2, std::min<std::uint64_t>(5, n - 1));
      alpha_t = pick(1, 6);
    }
    const Schedule base = base_schedule(n, d);
    if (alpha_r == 0) {
      // A third of the draws pad: αR above the smallest base receive side
      // |R[i]| = n − |T[i]|. The rest range from k_R ≥ 3 to one window.
      const std::size_t smallest_r = n - base.max_transmitters();
      alpha_r = rng.below(3) == 0 && smallest_r < n - alpha_t ? pick(smallest_r + 1, n - alpha_t)
                                                               : pick(1, n - alpha_t);
    }
    const auto policy = rng.below(2) == 0 ? DivisionPolicy::kContiguous : DivisionPolicy::kBalanced;
    ++policies[policy == DivisionPolicy::kBalanced ? 1 : 0];
    SCOPED_TRACE("n=" + std::to_string(n) + " D=" + std::to_string(d) + " aT=" +
                 std::to_string(alpha_t) + " aR=" + std::to_string(alpha_r) +
                 " balanced=" + std::to_string(policy == DivisionPolicy::kBalanced));
    const Schedule s = construct_duty_cycled(base, d, alpha_t, alpha_r, {.division = policy});
    expect_matches_pool_walk(s);
    expect_stretches_match_pool_walk(s, counter, stretch_rng, kinds);
    const ConstructBlocks blocks =
        construct_blocks(base, optimal_transmitters_alpha(n, d, alpha_t), alpha_r);
    padded += blocks.padded ? 1 : 0;
    wide += blocks.max_windows >= 3 ? 1 : 0;
    stacked += blocks.stacked ? 1 : 0;
    if (::testing::Test::HasFailure()) break;  // one reproducible case is enough
  }
  EXPECT_GT(padded, kCases / 10u);
  EXPECT_GT(wide, kCases / 10u);
  EXPECT_GT(stacked, kCases / 10u);
  EXPECT_GT(large, kCases / 20u);
  EXPECT_GT(policies[0], kCases / 4u);
  EXPECT_GT(policies[1], kCases / 4u);
  expect_stretch_coverage(kinds, kCases);
}

// The bench/e2e `metro` recipe: 247 base slots, none padded, each with
// k_R = 3 windows over a dense receive side, in which the contiguous
// division puts the members of the last window's shift in two windows.
TEST(FrameCounts, MetroRecipeMatchesPoolWalk) {
  constexpr std::size_t kN = 5000, kD = 6, kAlphaT = 4, kAlphaR = kN / 3;
  const Schedule base = base_schedule(kN, kD);
  const std::size_t cap_t = optimal_transmitters_alpha(kN, kD, kAlphaT);
  const ConstructBlocks blocks = construct_blocks(base, cap_t, kAlphaR);
  EXPECT_FALSE(blocks.padded);
  EXPECT_EQ(blocks.max_windows, 3u);
  EXPECT_TRUE(blocks.stacked);
  for (const DivisionPolicy policy : {DivisionPolicy::kContiguous, DivisionPolicy::kBalanced}) {
    SCOPED_TRACE(policy == DivisionPolicy::kBalanced ? "balanced" : "contiguous");
    const Schedule s = construct_duty_cycled(base, kD, kAlphaT, kAlphaR, {.division = policy});
    EXPECT_EQ(s.frame_length(), constructed_frame_length(base, cap_t, kAlphaR));
    expect_matches_pool_walk(s);
  }
}

TEST(FrameCounts, OneSetPerSlotSchedulesMatchPoolWalk) {
  for (const std::size_t n : {12u, 60u, 300u}) {
    SCOPED_TRACE("non-sleeping n=" + std::to_string(n));
    expect_matches_pool_walk(base_schedule(n, 3));
  }
  util::Xoshiro256 rng(17);
  {
    SCOPED_TRACE("direct");
    expect_matches_pool_walk(greedy_direct_schedule(14, 3, 2, 5, rng));
  }
  for (const std::size_t alpha_r : {3u, 8u, 20u}) {
    SCOPED_TRACE("round trip aR=" + std::to_string(alpha_r));
    const Schedule pooled = construct_duty_cycled(base_schedule(30, 3), 3, 3, alpha_r);
    std::stringstream text;
    write_schedule(text, pooled);
    const Schedule flat = read_schedule(text);
    ASSERT_EQ(flat.frame_length(), pooled.frame_length());
    EXPECT_EQ(frame_counts(flat), frame_counts(pooled));
    expect_matches_pool_walk(flat);
  }
}

util::SlotSet set_of(std::size_t n, std::initializer_list<std::size_t> members) {
  return util::SlotSet(n, members);
}

// Two rows share the R list ({2, 3}, {4, 5}), but nodes 6 and 7 sit in no
// window of the block: it does not cover V, so it must be walked (a closed
// form would have them listen wherever they do not transmit).
TEST(FrameCounts, PooledRowsThatDoNotCoverVAreWalked) {
  constexpr std::size_t n = 8;
  const Schedule s(n, {set_of(n, {0}), set_of(n, {1})}, {0, 0, 1, 1},
                   {set_of(n, {2, 3}), set_of(n, {4, 5})}, {0, 1, 0, 1});
  const FrameCounts counts = frame_counts(s);
  EXPECT_EQ(counts, reference_frame_counts(s, 0, 4));
  EXPECT_EQ(counts.listen, (std::vector<std::uint32_t>{0, 0, 2, 2, 2, 2, 0, 0}));
  // Slots 1, 2 and 3 switch windows; slot 0 wakes nobody.
  EXPECT_EQ(counts.wakes, (std::vector<std::uint32_t>{0, 0, 1, 1, 2, 2, 0, 0}));
  EXPECT_EQ(counts.transmit, (std::vector<std::uint32_t>{2, 2, 0, 0, 0, 0, 0, 0}));
  // The stretch [1, 4) starts inside the first row: slots 2 and 3 switch
  // windows, and slot 1 wakes nobody.
  FrameCounter counter;
  const FrameCounts& tail = counter.count(s, 1, 4);
  EXPECT_EQ(tail, reference_frame_counts(s, 1, 4));
  EXPECT_EQ(tail.listen, (std::vector<std::uint32_t>{0, 0, 1, 1, 2, 2, 0, 0}));
  EXPECT_EQ(tail.wakes, (std::vector<std::uint32_t>{0, 0, 1, 1, 1, 1, 0, 0}));
  EXPECT_EQ(tail.transmit, (std::vector<std::uint32_t>{1, 2, 0, 0, 0, 0, 0, 0}));
}

/// A pooled schedule built block by block: each block splits V into a
/// transmit side and a receive side, draws 1-3 receive windows over the
/// receive side (covering it or not), an R list of 1-4 of them (repeats
/// allowed) and 1-4 rows, each a transmit window over the transmit side
/// (a row may reuse an earlier row's pooled window, never the previous
/// row's).
Schedule random_pooled_schedule(std::size_t n, util::Xoshiro256& rng) {
  std::vector<util::SlotSet> t_pool, r_pool;
  std::vector<std::uint32_t> t_of, r_of;
  const std::size_t blocks = 1 + rng.below(5);
  for (std::size_t blk = 0; blk < blocks; ++blk) {
    const double t_share = 0.05 + 0.4 * rng.uniform01();
    std::vector<std::size_t> t_side, r_side;
    for (std::size_t v = 0; v < n; ++v) (rng.bernoulli(t_share) ? t_side : r_side).push_back(v);
    const std::size_t k = 1 + rng.below(3);
    const auto first_r = static_cast<std::uint32_t>(r_pool.size());
    std::vector<util::SlotSet> windows(k, util::SlotSet(n));
    const double r_share = 0.2 + 0.7 * rng.uniform01();
    const bool cover = rng.bernoulli(0.7);
    for (const std::size_t v : r_side) {
      bool placed = false;
      for (util::SlotSet& w : windows) {
        if (rng.bernoulli(r_share)) {
          w.set(v);
          placed = true;
        }
      }
      if (cover && !placed) windows[rng.below(k)].set(v);
    }
    for (util::SlotSet& w : windows) r_pool.push_back(std::move(w));
    std::vector<std::uint32_t> r_list(1 + rng.below(4));
    for (std::uint32_t& r : r_list) r = first_r + static_cast<std::uint32_t>(rng.below(k));
    const std::size_t rows = 1 + rng.below(4);
    std::vector<std::uint32_t> row_t;
    for (std::size_t a = 0; a < rows; ++a) {
      std::uint32_t t = 0;
      if (a >= 2 && rng.bernoulli(0.3) && row_t[a - 2] != row_t[a - 1]) {
        t = row_t[a - 2];
      } else {
        t = static_cast<std::uint32_t>(t_pool.size());
        util::SlotSet& tbar = t_pool.emplace_back(n);
        for (const std::size_t v : t_side) {
          if (rng.bernoulli(0.5)) tbar.set(v);
        }
      }
      row_t.push_back(t);
      for (const std::uint32_t r : r_list) {
        t_of.push_back(t);
        r_of.push_back(r);
      }
    }
  }
  return Schedule(n, std::move(t_pool), std::move(t_of), std::move(r_pool), std::move(r_of));
}

TEST(FrameCounts, RandomPooledBlocksMatchPoolWalk) {
  constexpr std::size_t kCases = 400;
  util::Xoshiro256 rng(0xb10c5u);
  util::Xoshiro256 stretch_rng(0x57e7c5u);  // a stream of its own keeps the draws below
  FrameCounter counter;
  StretchKinds kinds;
  for (std::size_t c = 0; c < kCases; ++c) {
    const std::size_t n = c % 8 == 0 ? 257 + rng.below(200) : 1 + rng.below(150);
    SCOPED_TRACE("case " + std::to_string(c) + " n=" + std::to_string(n));
    const Schedule s = random_pooled_schedule(n, rng);
    expect_matches_pool_walk(s);
    expect_stretches_match_pool_walk(s, counter, stretch_rng, kinds);
    if (::testing::Test::HasFailure()) break;
  }
  expect_stretch_coverage(kinds, kCases);
}

}  // namespace
}  // namespace ttdc::core
