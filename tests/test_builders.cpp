// Schedule builders and the Figure 1 witness.
#include "core/builders.hpp"

#include <gtest/gtest.h>

#include "combinatorics/constructions.hpp"
#include "core/energy.hpp"
#include "core/node_slots.hpp"
#include "core/requirements.hpp"
#include "core/throughput.hpp"

namespace ttdc::core {
namespace {

TEST(Builders, RandomNonSleepingHasRequestedShape) {
  util::Xoshiro256 rng(4);
  const Schedule s = random_non_sleeping_schedule(12, 9, 4, rng);
  EXPECT_EQ(s.num_nodes(), 12u);
  EXPECT_EQ(s.frame_length(), 9u);
  EXPECT_TRUE(s.is_non_sleeping());
  for (std::size_t i = 0; i < s.frame_length(); ++i) {
    EXPECT_EQ(s.transmit_sizes()[i], 4u);
    EXPECT_EQ(s.receive_sizes()[i], 8u);
  }
}

TEST(Builders, RandomAlphaRespectsCapsAndDisjointness) {
  util::Xoshiro256 rng(8);
  const Schedule s = random_alpha_schedule(10, 30, 3, 6, false, rng);
  EXPECT_TRUE(s.is_alpha_schedule(3, 6));
  for (std::size_t i = 0; i < s.frame_length(); ++i) {
    EXPECT_GE(s.transmit_sizes()[i], 1u);
    EXPECT_GE(s.receive_sizes()[i], 1u);
    EXPECT_FALSE(s.transmitters(i).intersects(s.receivers(i)));
  }
}

TEST(Builders, RandomAlphaExactSizes) {
  util::Xoshiro256 rng(8);
  const Schedule s = random_alpha_schedule(10, 10, 3, 6, true, rng);
  for (std::size_t i = 0; i < s.frame_length(); ++i) {
    EXPECT_EQ(s.transmit_sizes()[i], 3u);
    EXPECT_EQ(s.receive_sizes()[i], 6u);
  }
}

TEST(Figure1, DutyCycledPreservesPerLinkGuaranteedSlots) {
  const Figure1Example ex = figure1_example();
  const NodeSlots non_sleeping(ex.non_sleeping);
  const NodeSlots duty_cycled(ex.duty_cycled);
  // On the example topology, for every directed link (x, y) with y's other
  // neighbors as S, the guaranteed-success slot sets are identical under
  // the non-sleeping and the duty-cycled schedule.
  for (const auto& [a, b] : ex.edges) {
    for (const auto& [x, y] : {std::pair{a, b}, std::pair{b, a}}) {
      std::vector<std::size_t> s;
      for (const auto& [p, q] : ex.edges) {
        if (p == y && q != x) s.push_back(q);
        if (q == y && p != x) s.push_back(p);
      }
      EXPECT_EQ(non_sleeping.guaranteed_slots(x, y, s), duty_cycled.guaranteed_slots(x, y, s))
          << "link " << x << " -> " << y;
      EXPECT_GE(duty_cycled.guaranteed_slot_count(x, y, s), 1u);
    }
  }
}

TEST(Figure1, DutyCycledSavesEnergy) {
  const Figure1Example ex = figure1_example();
  EXPECT_DOUBLE_EQ(ex.non_sleeping.duty_cycle(), 1.0);
  EXPECT_LT(ex.duty_cycled.duty_cycle(), 0.6);
}

TEST(Figure1, AverageThroughputOverNnDIsLowerForDutyCycled) {
  // §5.2's nuance: equal throughput holds on the SPECIFIC topology; over
  // all of N_n^D the duty-cycled schedule averages lower (Theorem 2).
  const Figure1Example ex = figure1_example();
  const auto ns = average_throughput_exact(ex.non_sleeping, 2);
  const auto dc = average_throughput_exact(ex.duty_cycled, 2);
  EXPECT_GT(static_cast<double>(ns.value()), static_cast<double>(dc.value()));
}

TEST(Figure1, SavingIsTopologySpecificNotTransparent) {
  // The crux of §5.2: the duty-cycled schedule preserves throughput on the
  // SPECIFIC topology of the figure, but it is NOT topology-transparent --
  // a node outside the path neighborhood would miss its receiver's slots.
  const Figure1Example ex = figure1_example();
  EXPECT_FALSE(check_requirement3_exact(ex.non_sleeping, 2));
  const auto violation = check_requirement3_exact(ex.duty_cycled, 2);
  ASSERT_TRUE(violation);
  // The witness pair is non-adjacent in the example topology.
  bool adjacent = false;
  for (const auto& [a, b] : ex.edges) {
    if ((a == violation->transmitter && b == violation->receiver) ||
        (b == violation->transmitter && a == violation->receiver)) {
      adjacent = true;
    }
  }
  EXPECT_FALSE(adjacent);
}

TEST(Energy, BalanceReportOnUniformSchedule) {
  util::Xoshiro256 rng(6);
  const Schedule s = random_alpha_schedule(10, 8, 3, 5, true, rng);
  const BalanceReport report = balance_report(s);
  EXPECT_TRUE(report.slots_balanced());
  EXPECT_EQ(report.min_active_per_slot, 8u);
  EXPECT_GE(report.node_duty_stddev, 0.0);
}

TEST(Energy, TdmaNonSleepingIsFullyBalanced) {
  const Schedule s = non_sleeping_from_family(comb::tdma_family(7));
  const BalanceReport report = balance_report(s);
  EXPECT_TRUE(report.slots_balanced());
  EXPECT_TRUE(report.nodes_balanced());
  EXPECT_DOUBLE_EQ(report.node_duty_stddev, 0.0);
}

}  // namespace
}  // namespace ttdc::core
