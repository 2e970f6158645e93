// Neighbor discovery: the one-frame corollary of topology transparency.
#include "sim/discovery.hpp"

#include <gtest/gtest.h>

#include "combinatorics/constructions.hpp"
#include "combinatorics/params.hpp"
#include "core/builders.hpp"
#include "core/construct.hpp"
#include "core/node_slots.hpp"
#include "net/topology.hpp"

namespace ttdc::sim {
namespace {

using core::Schedule;

TEST(Discovery, TdmaDiscoversPathInOneFrame) {
  const Schedule s = core::non_sleeping_from_family(comb::tdma_family(5));
  const net::Graph g = net::path_graph(5);
  const DiscoveryResult r = run_discovery(s, g, s.frame_length());
  EXPECT_TRUE(r.complete(g));
  EXPECT_LT(r.last_discovery_slot(), s.frame_length());
  EXPECT_EQ(r.discovered_count(), 2 * g.num_edges());
}

TEST(Discovery, FirstHeardSlotIsTransmittersSlot) {
  // Pure TDMA: y hears x exactly in x's slot (no interference possible).
  const Schedule s = core::non_sleeping_from_family(comb::tdma_family(4));
  const net::Graph g = net::ring_graph(4);
  const DiscoveryResult r = run_discovery(s, g, s.frame_length());
  const core::NodeSlots slots(s);
  for (const auto& [a, b] : g.edges()) {
    EXPECT_EQ(r.first_heard[b][a], slots.tran(a).find_first());
    EXPECT_EQ(r.first_heard[a][b], slots.tran(b).find_first());
  }
}

TEST(Discovery, IncompleteWithinTooShortHorizon) {
  const Schedule s = core::non_sleeping_from_family(comb::tdma_family(5));
  const net::Graph g = net::path_graph(5);
  const DiscoveryResult r = run_discovery(s, g, 1);  // only node 0's slot
  EXPECT_FALSE(r.complete(g));
  EXPECT_EQ(r.discovered_count(), 1u);  // 1 hears 0
}

TEST(Discovery, NonNeighborsNeverHeard) {
  const Schedule s = core::non_sleeping_from_family(comb::tdma_family(5));
  const net::Graph g = net::path_graph(5);
  const DiscoveryResult r = run_discovery(s, g, 3 * s.frame_length());
  EXPECT_EQ(r.first_heard[0][4], static_cast<std::size_t>(-1));
  EXPECT_EQ(r.first_heard[4][0], static_cast<std::size_t>(-1));
}

// The headline corollary, swept over topologies: a topology-transparent
// duty-cycled schedule discovers EVERY neighbor within one frame on every
// bounded-degree topology.
class DiscoveryOneFrame : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DiscoveryOneFrame, CompleteWithinOneFrameOnRandomTopologies) {
  const std::size_t n = 20, d = 3;
  const Schedule duty = core::construct_duty_cycled(
      core::non_sleeping_from_family(comb::build_plan(comb::best_plan(n, d), n)), d, 3, 8);
  util::Xoshiro256 rng(GetParam());
  const net::Graph g = net::random_bounded_degree_graph(n, d, 2 * n, rng);
  const DiscoveryResult r = run_discovery(duty, g, duty.frame_length());
  EXPECT_TRUE(r.complete(g)) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiscoveryOneFrame,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

TEST(Discovery, DegreeBeyondBoundMayStayUndiscovered) {
  // A star whose hub has degree n-1 >> D: the schedule's guarantee is for
  // degree <= D only; the hub may fail to hear some leaves (interference in
  // all of their slots is now possible). We only assert the guarantee is
  // not claimed: completeness may fail.
  const std::size_t n = 9;  // schedule designed for D = 2
  const Schedule s =
      core::non_sleeping_from_family(comb::polynomial_family(3, 1, n));
  const net::Graph g = net::star_graph(n);
  const DiscoveryResult r = run_discovery(s, g, 4 * s.frame_length());
  // Leaves still hear the hub (their degree is 1 <= D)...
  for (std::size_t leaf = 1; leaf < n; ++leaf) {
    EXPECT_NE(r.first_heard[leaf][0], static_cast<std::size_t>(-1));
  }
  // ...but the hub (degree 8 > D=2) misses at least one leaf here.
  EXPECT_FALSE(r.complete(g));
}

}  // namespace
}  // namespace ttdc::sim
