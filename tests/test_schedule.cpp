// Schedule <T, R>: invariants, the NodeSlots transposition, set operators
// from §3-§5.
#include "core/schedule.hpp"

#include <gtest/gtest.h>

#include "combinatorics/constructions.hpp"
#include "core/builders.hpp"
#include "core/frame_counts.hpp"
#include "core/node_slots.hpp"
#include "util/rng.hpp"

namespace ttdc::core {
namespace {

Schedule tiny_schedule() {
  // n = 4, L = 3.
  // slot 0: T={0},   R={1,2}
  // slot 1: T={1,2}, R={3}
  // slot 2: T={3},   R={0,1,2}
  std::vector<DynamicBitset> t = {DynamicBitset(4, {0}), DynamicBitset(4, {1, 2}),
                                  DynamicBitset(4, {3})};
  std::vector<DynamicBitset> r = {DynamicBitset(4, {1, 2}), DynamicBitset(4, {3}),
                                  DynamicBitset(4, {0, 1, 2})};
  return Schedule(4, std::move(t), std::move(r));
}

TEST(Schedule, BasicAccessors) {
  const Schedule s = tiny_schedule();
  EXPECT_EQ(s.num_nodes(), 4u);
  EXPECT_EQ(s.frame_length(), 3u);
  EXPECT_EQ(s.transmit_sizes()[1], 2u);
  EXPECT_EQ(s.receive_sizes()[2], 3u);
  EXPECT_EQ(s.min_transmitters(), 1u);
  EXPECT_EQ(s.max_transmitters(), 2u);
  EXPECT_EQ(s.max_receivers(), 3u);
}

TEST(Schedule, TransposedSlotSetsMatchSlotMembership) {
  const NodeSlots s(tiny_schedule());
  EXPECT_EQ(s.num_nodes(), 4u);
  EXPECT_EQ(s.frame_length(), 3u);
  EXPECT_EQ(s.tran(0), DynamicBitset(3, {0}));
  EXPECT_EQ(s.tran(1), DynamicBitset(3, {1}));
  EXPECT_EQ(s.tran(3), DynamicBitset(3, {2}));
  EXPECT_EQ(s.recv(1), DynamicBitset(3, {0, 2}));
  EXPECT_EQ(s.recv(3), DynamicBitset(3, {1}));
}

TEST(Schedule, RejectsOverlappingTransmitReceive) {
  std::vector<DynamicBitset> t = {DynamicBitset(3, {0})};
  std::vector<DynamicBitset> r = {DynamicBitset(3, {0, 1})};
  EXPECT_THROW(Schedule(3, std::move(t), std::move(r)), std::invalid_argument);
}

TEST(Schedule, RejectsLengthMismatch) {
  std::vector<DynamicBitset> t = {DynamicBitset(3, {0}), DynamicBitset(3, {1})};
  std::vector<DynamicBitset> r = {DynamicBitset(3, {1})};
  EXPECT_THROW(Schedule(3, std::move(t), std::move(r)), std::invalid_argument);
  EXPECT_THROW(Schedule(3, std::vector<DynamicBitset>{}, std::vector<DynamicBitset>{}),
               std::invalid_argument);
  EXPECT_THROW(Schedule(3, std::vector<util::SlotSet>{}, std::vector<util::SlotSet>{}),
               std::invalid_argument);
}

TEST(Schedule, RejectsForeignUniverseSlotSets) {
  const auto build = [](util::SlotSet t, util::SlotSet r) {
    std::vector<util::SlotSet> tv, rv;
    tv.push_back(std::move(t));
    rv.push_back(std::move(r));
    return Schedule(3, std::move(tv), std::move(rv));
  };
  EXPECT_NO_THROW(build(util::SlotSet(3, {0}), util::SlotSet(3, {1, 2})));
  EXPECT_THROW(build(util::SlotSet(4, {0}), util::SlotSet(3, {1})), std::invalid_argument);
  EXPECT_THROW(build(util::SlotSet(3, {0}), util::SlotSet(3, {0, 1})), std::invalid_argument);
}

TEST(Schedule, PooledSlotsShareSetsAndCheckIndices) {
  const auto pool = [](std::initializer_list<util::SlotSet> sets) {
    return std::vector<util::SlotSet>(sets);
  };
  // T pool {0}, {1}; R pool {2, 3}, {0, 3}; slots (T, R) = (0,0) (1,0) (0,0).
  const Schedule s(4, pool({util::SlotSet(4, {0}), util::SlotSet(4, {1})}), {0, 1, 0},
                   pool({util::SlotSet(4, {2, 3}), util::SlotSet(4, {0, 3})}), {0, 0, 0});
  EXPECT_EQ(s.frame_length(), 3u);
  EXPECT_EQ(&s.transmitters(0), &s.transmitters(2));  // stored once
  EXPECT_EQ(s.transmitters(1), util::SlotSet(4, {1}));
  EXPECT_EQ(s.receivers(1), util::SlotSet(4, {2, 3}));
  EXPECT_EQ(NodeSlots(s).tran(0), DynamicBitset(3, {0, 2}));
  EXPECT_THROW(Schedule(4, pool({util::SlotSet(4, {0})}), {0, 1},
                        pool({util::SlotSet(4, {2})}), {0, 0}),
               std::invalid_argument);  // T index outside its pool
  EXPECT_THROW(Schedule(4, pool({util::SlotSet(4, {0})}), {0, 0},
                        pool({util::SlotSet(4, {2})}), {0}),
               std::invalid_argument);  // T and R lengths differ
  EXPECT_THROW(Schedule(4, pool({util::SlotSet(4, {0})}), {0},
                        pool({util::SlotSet(4, {2}), util::SlotSet(4, {0, 3})}), {1}),
               std::invalid_argument);  // T[0] ∩ R[0] = {0}
}

TEST(Schedule, SlotSetRepresentationFollowsPopulation) {
  // n = 1024: promote threshold max(16, 1024/32) = 32 members.
  constexpr std::size_t n = 1024;
  DynamicBitset few(n), many(n);
  for (std::size_t v = 0; v < 4; ++v) few.set(v * 100);
  for (std::size_t v = 0; v < 300; ++v) many.set(2 * v + 1);
  std::vector<DynamicBitset> t = {few};
  std::vector<DynamicBitset> r = {many};
  const Schedule s(n, std::move(t), std::move(r));
  EXPECT_FALSE(s.transmitters(0).is_dense());
  EXPECT_TRUE(s.receivers(0).is_dense());
  EXPECT_EQ(s.transmitters(0).to_dense_bitset(), few);
  EXPECT_EQ(s.receivers(0).to_dense_bitset(), many);
  EXPECT_EQ(s.transmit_sizes()[0], 4u);
  EXPECT_EQ(s.receive_sizes()[0], 300u);
}

TEST(Schedule, NonSleepingComplementsTransmitters) {
  std::vector<DynamicBitset> t = {DynamicBitset(5, {0, 2}), DynamicBitset(5, {4})};
  const Schedule s = Schedule::non_sleeping(5, std::move(t));
  EXPECT_TRUE(s.is_non_sleeping());
  EXPECT_EQ(s.receivers(0), util::SlotSet(5, {1, 3, 4}));
  EXPECT_EQ(s.receivers(1), util::SlotSet(5, {0, 1, 2, 3}));
  EXPECT_EQ(s.duty_cycle(), 1.0);
}

TEST(Schedule, DutyCycledScheduleIsNotNonSleeping) {
  const Schedule s = tiny_schedule();
  EXPECT_FALSE(s.is_non_sleeping());
  EXPECT_LT(s.duty_cycle(), 1.0);
  // slot 0 activates 3 of 4, slot 1: 3/4, slot 2: 4/4 -> 10/12.
  EXPECT_DOUBLE_EQ(s.duty_cycle(), 10.0 / 12.0);
}

TEST(Schedule, AlphaSchedulePredicate) {
  const Schedule s = tiny_schedule();
  EXPECT_TRUE(s.is_alpha_schedule(2, 3));
  EXPECT_FALSE(s.is_alpha_schedule(1, 3));
  EXPECT_FALSE(s.is_alpha_schedule(2, 2));
}

TEST(Schedule, FreeSlotsMatchesDefinition) {
  const NodeSlots s(tiny_schedule());
  // freeSlots(0, {1, 3}) = tran(0) - tran(1) - tran(3) = {0} - {1} - {2} = {0}.
  const std::vector<std::size_t> y = {1, 3};
  EXPECT_EQ(s.free_slots(0, y), DynamicBitset(3, {0}));
  // freeSlots(1, {2}) = {1} - {1} = {}.
  const std::vector<std::size_t> y2 = {2};
  EXPECT_TRUE(s.free_slots(1, y2).none());
}

TEST(Schedule, SigmaMatchesDefinition) {
  const NodeSlots s(tiny_schedule());
  // σ(0, 1) = tran(0) ∩ recv(1) = {0} ∩ {0, 2} = {0}.
  EXPECT_EQ(s.sigma(0, 1), DynamicBitset(3, {0}));
  // σ(3, 0) = {2} ∩ {2} = {2}.
  EXPECT_EQ(s.sigma(3, 0), DynamicBitset(3, {2}));
  // σ(1, 0) = {1} ∩ {2} = {}.
  EXPECT_TRUE(s.sigma(1, 0).none());
}

TEST(Schedule, GuaranteedSlotsMatchesDefinition) {
  const NodeSlots s(tiny_schedule());
  // T(0, 1, {2}) = recv(1) ∩ (tran(0) - tran(1) - tran(2))
  //             = {0,2} ∩ ({0} - {1} - {1}) = {0}.
  const std::vector<std::size_t> neighbors = {2};
  EXPECT_EQ(s.guaranteed_slots(0, 1, neighbors), DynamicBitset(3, {0}));
  EXPECT_EQ(s.guaranteed_slot_count(0, 1, neighbors), 1u);
}

TEST(Schedule, GuaranteedSlotsShrinkWithLargerNeighborhood) {
  // Monotonicity noted after Definition 1: T(x,y,S) ⊇ T(x,y,S') for S ⊆ S'.
  util::Xoshiro256 rng(99);
  const NodeSlots s(random_alpha_schedule(10, 20, 3, 5, false, rng));
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t x = static_cast<std::size_t>(rng.below(10));
    std::size_t y = static_cast<std::size_t>(rng.below(9));
    if (y >= x) ++y;
    std::vector<std::size_t> small, large;
    for (std::size_t v = 0; v < 10; ++v) {
      if (v == x || v == y) continue;
      if (rng.bernoulli(0.3)) small.push_back(v);
      large.push_back(v);
    }
    EXPECT_GE(s.guaranteed_slot_count(x, y, small), s.guaranteed_slot_count(x, y, large));
  }
}

TEST(Schedule, PerNodeDutyCycle) {
  // A node is active in its listen and transmit slots of the frame.
  const FrameCounts counts = frame_counts(tiny_schedule());
  const auto active = [&](std::size_t v) { return counts.listen[v] + counts.transmit[v]; };
  // Node 0: tran {0}, recv {2} -> 2 of 3. Node 3: tran {2}, recv {1} -> 2.
  EXPECT_EQ(active(0), 2u);
  EXPECT_EQ(active(3), 2u);
  // Node 1: tran {1}, recv {0, 2} -> 3.
  EXPECT_EQ(active(1), 3u);
}

TEST(Schedule, FromFamilyTransposesMembership) {
  const auto family = comb::polynomial_family(3, 1, 9);
  const Schedule s = non_sleeping_from_family(family);
  EXPECT_EQ(s.num_nodes(), 9u);
  EXPECT_TRUE(s.is_non_sleeping());
  // Node x transmits exactly in its member set's slots (no empty slots for
  // the full polynomial family: every (i, s) pair is some poly's value).
  EXPECT_EQ(s.frame_length(), 9u);
  const NodeSlots slots(s);
  for (std::size_t x = 0; x < 9; ++x) {
    EXPECT_EQ(slots.tran(x).count(), 3u);
  }
}

TEST(Schedule, FromFamilyDropsEmptySlots) {
  // Two members over universe 4, slots {0} and {2}: slots 1 and 3 empty.
  std::vector<DynamicBitset> sets = {DynamicBitset(4, {0}), DynamicBitset(4, {2})};
  const comb::SetFamily family(4, std::move(sets));
  const Schedule dropped = non_sleeping_from_family(family, true);
  EXPECT_EQ(dropped.frame_length(), 2u);
  const Schedule kept = non_sleeping_from_family(family, false);
  EXPECT_EQ(kept.frame_length(), 4u);
}

}  // namespace
}  // namespace ttdc::core
