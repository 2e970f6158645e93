// The Figure 2 construction and its analysis (§6-§7): Theorem 6
// correctness, Theorem 7 frame length, Theorem 8 optimality, Theorem 9
// minimum throughput, and the balanced-energy variant.
#include "core/construct.hpp"

#include <gtest/gtest.h>

#include "combinatorics/constructions.hpp"
#include "combinatorics/params.hpp"
#include "core/builders.hpp"
#include "core/energy.hpp"
#include "core/requirements.hpp"
#include "core/throughput.hpp"
#include "support/reference_schedule.hpp"

namespace ttdc::core {
namespace {

struct Case {
  std::size_t n;
  std::size_t d;
  std::size_t alpha_t;
  std::size_t alpha_r;
};

std::ostream& operator<<(std::ostream& os, const Case& c) {
  return os << "n=" << c.n << " D=" << c.d << " aT=" << c.alpha_t << " aR=" << c.alpha_r;
}

Schedule base_schedule_for(const Case& c) {
  return non_sleeping_from_family(comb::build_plan(comb::best_plan(c.n, c.d), c.n));
}

class ConstructTest : public ::testing::TestWithParam<Case> {};

TEST_P(ConstructTest, Theorem6OutputIsTransparentAlphaSchedule) {
  const Case c = GetParam();
  const Schedule base = base_schedule_for(c);
  ASSERT_FALSE(check_requirement1_exact(base, c.d)) << "base not transparent: " << c;
  for (const DivisionPolicy policy : {DivisionPolicy::kContiguous, DivisionPolicy::kBalanced}) {
    ConstructOptions opts;
    opts.division = policy;
    const Schedule out = construct_duty_cycled(base, c.d, c.alpha_t, c.alpha_r, opts);
    EXPECT_TRUE(out.is_alpha_schedule(c.alpha_t, c.alpha_r)) << c;
    EXPECT_FALSE(check_requirement3_exact(out, c.d))
        << "constructed schedule not topology-transparent: " << c;
  }
}

TEST_P(ConstructTest, Theorem7FrameLengthExactAndBounded) {
  const Case c = GetParam();
  const Schedule base = base_schedule_for(c);
  const std::size_t cap_t = optimal_transmitters_alpha(c.n, c.d, c.alpha_t);
  const Schedule out = construct_duty_cycled(base, c.d, c.alpha_t, c.alpha_r);
  EXPECT_EQ(out.frame_length(), constructed_frame_length(base, cap_t, c.alpha_r)) << c;
  EXPECT_LE(out.frame_length(), constructed_frame_length_bound(base, cap_t, c.alpha_r)) << c;
}

TEST_P(ConstructTest, Theorem8RatioBoundHolds) {
  const Case c = GetParam();
  const Schedule base = base_schedule_for(c);
  const Schedule out = construct_duty_cycled(base, c.d, c.alpha_t, c.alpha_r);
  const long double achieved = average_throughput(out, c.d);
  const long double best = throughput_upper_bound_alpha(c.n, c.d, c.alpha_t, c.alpha_r);
  const long double ratio = achieved / best;
  const long double bound = theorem8_ratio_lower_bound(base, c.d, c.alpha_t, c.alpha_r);
  EXPECT_GE(static_cast<double>(ratio), static_cast<double>(bound) - 1e-9) << c;
  EXPECT_LE(static_cast<double>(ratio), 1.0 + 1e-9) << c;
  // Optimality clause: M_in >= αT* forces ratio exactly 1.
  const std::size_t cap_t = optimal_transmitters_alpha(c.n, c.d, c.alpha_t);
  if (base.min_transmitters() >= cap_t) {
    EXPECT_NEAR(static_cast<double>(ratio), 1.0, 1e-9) << c;
  }
}

TEST_P(ConstructTest, Theorem9MinThroughputBoundHolds) {
  const Case c = GetParam();
  const Schedule base = base_schedule_for(c);
  const std::size_t base_min = min_guaranteed_slots_exact(base, c.d);
  ASSERT_GT(base_min, 0u) << c;
  const Schedule out = construct_duty_cycled(base, c.d, c.alpha_t, c.alpha_r);
  const std::size_t out_min = min_guaranteed_slots_exact(out, c.d);
  // The proof of Theorem 9 shows the constructed schedule preserves at
  // least as many guaranteed slots per frame...
  EXPECT_GE(out_min, base_min) << c;
  // ...hence Thr_min(out) >= (L/L̄) Thr_min(base).
  const std::size_t cap_t = optimal_transmitters_alpha(c.n, c.d, c.alpha_t);
  const long double bound = theorem9_min_throughput_bound(base, base_min, cap_t, c.alpha_r);
  const long double actual =
      static_cast<long double>(out_min) / static_cast<long double>(out.frame_length());
  EXPECT_GE(static_cast<double>(actual), static_cast<double>(bound) - 1e-12) << c;
}

// Differential oracle: every division policy and the αT' variant produce
// exactly the schedule the pair-by-pair Figure 2 loop does.
TEST_P(ConstructTest, MatchesReferenceConstruct) {
  const Case c = GetParam();
  const Schedule base = base_schedule_for(c);
  for (const DivisionPolicy policy : {DivisionPolicy::kContiguous, DivisionPolicy::kBalanced}) {
    for (const bool verbatim : {false, true}) {
      SCOPED_TRACE(testing::Message() << c << " balanced=" << (policy == DivisionPolicy::kBalanced)
                                      << " verbatim=" << verbatim);
      const ConstructOptions opts{.division = policy, .use_alpha_t_verbatim = verbatim};
      expect_matches_reference(construct_duty_cycled(base, c.d, c.alpha_t, c.alpha_r, opts),
                               reference_construct(base, c.d, c.alpha_t, c.alpha_r, opts));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ConstructTest,
    ::testing::Values(Case{9, 2, 2, 3}, Case{9, 2, 1, 1}, Case{12, 2, 3, 4},
                      Case{16, 3, 2, 5}, Case{16, 3, 4, 4}, Case{20, 2, 2, 6},
                      Case{25, 4, 3, 8}, Case{25, 2, 5, 5}, Case{10, 5, 1, 4},
                      Case{30, 3, 6, 10}, Case{18, 4, 2, 6}, Case{24, 2, 8, 8},
                      Case{15, 2, 1, 13}, Case{28, 3, 4, 12}, Case{21, 5, 2, 8}));

// The bench/e2e schedule recipe (D = 6, αT = 4, αR = n/3 over best_plan),
// with the non-sleeping input's own transposition checked too.
TEST(Construct, MatchesReferenceOnBenchmarkRecipe) {
  for (const std::size_t n : {100u, 400u, 1000u}) {
    const Case c{n, 6, 4, n / 3};
    SCOPED_TRACE(testing::Message() << c);
    const Schedule base = base_schedule_for(c);
    std::vector<DynamicBitset> t, r;
    for (std::size_t i = 0; i < base.frame_length(); ++i) {
      t.push_back(base.transmitters(i).to_dense_bitset());
      r.push_back(base.receivers(i).to_dense_bitset());
    }
    expect_matches_reference(base, reference_schedule(n, std::move(t), std::move(r)));
    for (const DivisionPolicy policy : {DivisionPolicy::kContiguous, DivisionPolicy::kBalanced}) {
      const ConstructOptions opts{.division = policy};
      expect_matches_reference(construct_duty_cycled(base, c.d, c.alpha_t, c.alpha_r, opts),
                               reference_construct(base, c.d, c.alpha_t, c.alpha_r, opts));
    }
  }
}

// The memory property no digest can see: on the bench/e2e recipe every
// constructed T[i] holds αT* = 4 ids and is stored as an id list, not as an
// n-bit row, while every R[i] of αR = n/3 ids is a bitset.
TEST(Construct, StoresDutyCycledTransmittersSparse) {
  const Case c{1000, 6, 4, 1000 / 3};
  const Schedule out = construct_duty_cycled(base_schedule_for(c), c.d, c.alpha_t, c.alpha_r);
  ASSERT_LE(out.max_transmitters(), c.alpha_t);
  for (std::size_t i = 0; i < out.frame_length(); ++i) {
    ASSERT_FALSE(out.transmitters(i).is_dense()) << "T[" << i << "]";
    ASSERT_TRUE(out.receivers(i).is_dense()) << "R[" << i << "]";
  }
}

// αR > n - M_in: some slots have fewer receivers than αR, so line 8 pads
// every pair of theirs from V - T̄.
TEST(Construct, MatchesReferenceWhenPaddingReceivers) {
  for (const Case c : {Case{100, 6, 4, 95}, Case{300, 6, 10, 290}, Case{25, 2, 4, 21},
                       Case{9, 2, 1, 8}}) {
    SCOPED_TRACE(testing::Message() << c);
    const Schedule base = base_schedule_for(c);
    ASSERT_GT(c.alpha_r, c.n - base.min_transmitters()) << "no slot needs padding";
    for (const DivisionPolicy policy : {DivisionPolicy::kContiguous, DivisionPolicy::kBalanced}) {
      for (const bool verbatim : {false, true}) {
        const ConstructOptions opts{.division = policy, .use_alpha_t_verbatim = verbatim};
        const Schedule out = construct_duty_cycled(base, c.d, c.alpha_t, c.alpha_r, opts);
        expect_matches_reference(out, reference_construct(base, c.d, c.alpha_t, c.alpha_r, opts));
        EXPECT_TRUE(out.is_alpha_schedule(c.alpha_t, c.alpha_r));
        for (const std::size_t size : out.receive_sizes()) EXPECT_EQ(size, c.alpha_r);
      }
    }
  }
}

TEST(Construct, RejectsInvalidInputs) {
  const Schedule base = non_sleeping_from_family(comb::tdma_family(6));
  EXPECT_THROW(construct_duty_cycled(base, 2, 0, 3), std::invalid_argument);
  EXPECT_THROW(construct_duty_cycled(base, 2, 3, 0), std::invalid_argument);
  EXPECT_THROW(construct_duty_cycled(base, 2, 4, 4), std::invalid_argument);  // αT+αR > n
  // Non-non-sleeping input rejected.
  util::Xoshiro256 rng(1);
  const Schedule partial = random_alpha_schedule(6, 4, 2, 2, false, rng);
  EXPECT_THROW(construct_duty_cycled(partial, 2, 2, 2), std::invalid_argument);
}

TEST(Construct, PerSlotCardinalitiesAreExactlyAlphaWhenFeasible) {
  // Theorem 4's equality condition needs |T̄[i]| = αT*, |R̄[i]| = αR in every
  // slot; with M_in >= αT* and line-8 padding this must hold exactly.
  const std::size_t n = 25, d = 2, at = 5, ar = 5;
  const Schedule base = non_sleeping_from_family(comb::polynomial_family(5, 2, n));
  const std::size_t cap_t = optimal_transmitters_alpha(n, d, at);
  ASSERT_GE(base.min_transmitters(), cap_t);
  const Schedule out = construct_duty_cycled(base, d, at, ar);
  for (std::size_t i = 0; i < out.frame_length(); ++i) {
    EXPECT_EQ(out.receive_sizes()[i], ar);
    EXPECT_LE(out.transmit_sizes()[i], cap_t);
  }
}

TEST(Construct, AlphaTVerbatimOptionUsesExactCap) {
  // The αT' variant after Theorem 6: transmitter sets of size exactly αT'.
  const std::size_t n = 25, d = 2;
  const Schedule base = non_sleeping_from_family(comb::polynomial_family(5, 2, n));
  ConstructOptions opts;
  opts.use_alpha_t_verbatim = true;
  const Schedule out = construct_duty_cycled(base, d, 5, 7, opts);
  for (std::size_t i = 0; i < out.frame_length(); ++i) {
    EXPECT_EQ(out.transmit_sizes()[i], 5u);
    EXPECT_EQ(out.receive_sizes()[i], 7u);
  }
  EXPECT_FALSE(check_requirement3_exact(out, d));
}

TEST(Construct, BalancedDivisionPreservesBalance) {
  // §7 closing: if <T> is balanced, the balanced division preserves
  // (1) equal active count per slot, (2) equal per-node active fraction.
  // The q=5,k=2 polynomial schedule with all 125 codewords is balanced:
  // every slot has exactly 25 transmitters, every node transmits 5 times.
  const std::size_t n = 125, d = 2, at = 5, ar = 20;
  const Schedule base = non_sleeping_from_family(comb::polynomial_family(5, 2, n));
  ASSERT_EQ(base.min_transmitters(), base.max_transmitters());
  ConstructOptions opts;
  opts.division = DivisionPolicy::kBalanced;
  const Schedule out = construct_duty_cycled(base, d, at, ar, opts);
  const BalanceReport report = balance_report(out);
  EXPECT_TRUE(report.slots_balanced());
  EXPECT_TRUE(report.nodes_balanced())
      << "active slots per node in [" << report.min_active_per_node << ", "
      << report.max_active_per_node << "]";
}

TEST(Construct, BalancedDivisionNoWorseSpreadThanContiguous) {
  const std::size_t n = 20, d = 3, at = 3, ar = 6;
  const Schedule base = base_schedule_for({n, d, at, ar});
  ConstructOptions naive, balanced;
  balanced.division = DivisionPolicy::kBalanced;
  const auto r_naive = balance_report(construct_duty_cycled(base, d, at, ar, naive));
  const auto r_bal = balance_report(construct_duty_cycled(base, d, at, ar, balanced));
  const auto spread = [](const BalanceReport& r) {
    return r.max_active_per_node - r.min_active_per_node;
  };
  EXPECT_LE(spread(r_bal), spread(r_naive) + 1);
}

TEST(Construct, DutyCycleDropsMonotonicallyWithAlphaR) {
  const std::size_t n = 25, d = 2;
  const Schedule base = non_sleeping_from_family(comb::polynomial_family(5, 2, n));
  double prev = 2.0;
  for (std::size_t ar : {20u, 10u, 5u, 2u}) {
    const Schedule out = construct_duty_cycled(base, d, 5, ar);
    const double duty = out.duty_cycle();
    EXPECT_LT(duty, prev);
    prev = duty;
  }
}

}  // namespace
}  // namespace ttdc::core
