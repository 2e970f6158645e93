// Slot simulator: collision semantics, MAC protocols, energy and latency.
#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include "combinatorics/constructions.hpp"
#include "combinatorics/params.hpp"
#include "core/builders.hpp"
#include "core/construct.hpp"
#include "core/node_slots.hpp"
#include "net/topology.hpp"
#include "sim/mac.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace ttdc::sim {
namespace {

using core::DynamicBitset;
using core::Schedule;

// TDMA over n nodes where everyone listens when not transmitting.
Schedule tdma_schedule(std::size_t n) {
  return core::non_sleeping_from_family(comb::tdma_family(n));
}

SaturatedFlows::BacklogFn backlog_probe(Simulator*& sim) {
  return [&sim](std::size_t node) { return sim->queue_size(node); };
}

TEST(Simulator, SingleLinkTdmaDeliversOncePerFrame) {
  const Schedule s = tdma_schedule(3);
  DutyCycledScheduleMac mac(s);
  Simulator* sim_ptr = nullptr;
  SaturatedFlows traffic({{0, 1}}, backlog_probe(sim_ptr));
  Simulator sim(net::path_graph(3), mac, traffic, {.seed = 1});
  sim_ptr = &sim;
  sim.run(30);  // 10 frames of length 3
  EXPECT_EQ(sim.stats().delivered, 10u);
  EXPECT_EQ(sim.stats().collisions, 0u);
  EXPECT_EQ(sim.stats().transmissions, 10u);
}

TEST(Simulator, TwoTransmittersCollideAtCommonReceiver) {
  // Star: 0 is the center; 1 and 2 both transmit to 0 in the same slot.
  std::vector<DynamicBitset> t = {DynamicBitset(3, {1, 2})};
  std::vector<DynamicBitset> r = {DynamicBitset(3, {0})};
  const Schedule s(3, std::move(t), std::move(r));
  DutyCycledScheduleMac mac(s);
  Simulator* sim_ptr = nullptr;
  SaturatedFlows traffic({{1, 0}, {2, 0}}, backlog_probe(sim_ptr));
  Simulator sim(net::star_graph(3), mac, traffic, {.seed = 2});
  sim_ptr = &sim;
  sim.run(20);
  EXPECT_EQ(sim.stats().delivered, 0u);
  EXPECT_EQ(sim.stats().collisions, 40u);  // both transmissions lost, every slot
}

TEST(Simulator, HiddenTransmitterToOtherDestinationStillCollides) {
  // Path 1 - 0 - 2; node 1 sends to 0 while node 2 sends to 3 (its other
  // neighbor). Node 2's transmission interferes at 0 regardless of intent.
  net::Graph g(4);
  g.add_edge(1, 0);
  g.add_edge(0, 2);
  g.add_edge(2, 3);
  std::vector<DynamicBitset> t = {DynamicBitset(4, {1, 2})};
  std::vector<DynamicBitset> r = {DynamicBitset(4, {0, 3})};
  const Schedule s(4, std::move(t), std::move(r));
  DutyCycledScheduleMac mac(s);
  Simulator* sim_ptr = nullptr;
  SaturatedFlows traffic({{1, 0}, {2, 3}}, backlog_probe(sim_ptr));
  Simulator sim(std::move(g), mac, traffic, {.seed = 3});
  sim_ptr = &sim;
  sim.run(10);
  // 2 -> 3 succeeds (no interferer near 3); 1 -> 0 always collides with 2.
  EXPECT_EQ(sim.stats().delivered_by_origin[2], 10u);
  EXPECT_EQ(sim.stats().delivered_by_origin[1], 0u);
  EXPECT_EQ(sim.stats().collisions, 10u);
}

TEST(Simulator, ScheduleAwareSenderWaitsForReceiver) {
  // Duty-cycled: node 1 may only receive in slot 1; node 0 transmits in
  // both slots. Aware sender holds the packet for slot 1 -> no waste.
  std::vector<DynamicBitset> t = {DynamicBitset(2, {0}), DynamicBitset(2, {0})};
  std::vector<DynamicBitset> r = {DynamicBitset(2), DynamicBitset(2, {1})};
  const Schedule s(2, std::move(t), std::move(r));
  Simulator* sim_ptr = nullptr;
  SaturatedFlows traffic({{0, 1}}, backlog_probe(sim_ptr));

  DutyCycledScheduleMac aware(s, true);
  Simulator sim(net::path_graph(2), aware, traffic, {.seed = 4});
  sim_ptr = &sim;
  sim.run(20);
  EXPECT_EQ(sim.stats().delivered, 10u);
  EXPECT_EQ(sim.stats().receiver_asleep, 0u);

  DutyCycledScheduleMac naive(s, false);
  Simulator* sim2_ptr = nullptr;
  SaturatedFlows traffic2({{0, 1}}, backlog_probe(sim2_ptr));
  Simulator sim2(net::path_graph(2), naive, traffic2, {.seed = 4});
  sim2_ptr = &sim2;
  sim2.run(20);
  EXPECT_EQ(sim2.stats().delivered, 10u);
  EXPECT_EQ(sim2.stats().receiver_asleep, 10u);  // slot-0 attempts wasted
}

// The central empirical validation: on the worst-case star the simulator
// reproduces |T(x, y, S)| successes per frame, exactly (E3).
TEST(Simulator, WorstCaseStarMatchesGuaranteedSlotAnalysis) {
  const std::uint32_t q = 5;
  const std::size_t n = 25, d = 3;
  const Schedule s = core::non_sleeping_from_family(comb::polynomial_family(q, 1, n));
  // y = 0 with neighbors {1 (=x), 2, 3}; all three saturated toward y.
  net::Graph g(n);
  for (std::size_t leaf = 1; leaf <= d; ++leaf) g.add_edge(0, leaf);
  DutyCycledScheduleMac mac(s);
  Simulator* sim_ptr = nullptr;
  SaturatedFlows traffic({{1, 0}, {2, 0}, {3, 0}}, backlog_probe(sim_ptr));
  Simulator sim(std::move(g), mac, traffic, {.seed = 5});
  sim_ptr = &sim;
  const std::uint64_t frames = 40;
  sim.run(frames * s.frame_length());
  const core::NodeSlots slots(s);
  for (std::size_t x = 1; x <= d; ++x) {
    std::vector<std::size_t> others;
    for (std::size_t z = 1; z <= d; ++z) {
      if (z != x) others.push_back(z);
    }
    const std::size_t per_frame = slots.guaranteed_slot_count(x, 0, others);
    EXPECT_EQ(sim.stats().delivered_by_origin[x], frames * per_frame) << "x=" << x;
  }
}

TEST(Simulator, AlohaDeliversUnderLightLoadAndCollidesUnderHeavy) {
  Simulator* p1 = nullptr;
  SlottedAlohaMac light(5, 0.05);
  SaturatedFlows t1({{1, 0}, {2, 0}, {3, 0}, {4, 0}}, backlog_probe(p1));
  Simulator s1(net::star_graph(5), light, t1, {.seed = 6});
  p1 = &s1;
  s1.run(4000);
  EXPECT_GT(s1.stats().delivered, 100u);

  Simulator* p2 = nullptr;
  SlottedAlohaMac heavy(5, 0.95);
  SaturatedFlows t2({{1, 0}, {2, 0}, {3, 0}, {4, 0}}, backlog_probe(p2));
  Simulator s2(net::star_graph(5), heavy, t2, {.seed = 6});
  p2 = &s2;
  s2.run(4000);
  EXPECT_GT(s2.stats().collisions, s2.stats().hop_successes * 5);
}

TEST(Simulator, UncoordinatedSleepAwakeFractionTracksProbability) {
  UncoordinatedSleepMac mac(20, 0.3, 0.5);
  BernoulliTraffic traffic(20, 0.001);
  util::Xoshiro256 rng(7);
  Simulator sim(net::random_bounded_degree_graph(20, 4, 40, rng), mac, traffic, {.seed = 7});
  sim.run(5000);
  EXPECT_NEAR(sim.stats().awake_fraction(), 0.3, 0.02);
}

TEST(Simulator, Distance2ColoringIsValid) {
  util::Xoshiro256 rng(8);
  for (int trial = 0; trial < 10; ++trial) {
    const net::Graph g = net::random_bounded_degree_graph(30, 4, 60, rng);
    const auto color = distance2_coloring(g);
    for (std::size_t v = 0; v < 30; ++v) {
      g.neighbors(v).for_each([&](std::size_t u) {
        EXPECT_NE(color[v], color[u]);
        g.neighbors(u).for_each([&](std::size_t w) {
          if (w != v) { EXPECT_NE(color[v], color[w]); }
        });
      });
    }
  }
}

TEST(Simulator, ColoringTdmaNeverCollides) {
  util::Xoshiro256 rng(9);
  const net::Graph g = net::random_bounded_degree_graph(25, 3, 40, rng);
  ColoringTdmaMac mac(g);
  BernoulliTraffic traffic(25, 0.05);
  Simulator sim(g, mac, traffic, {.seed = 9});
  sim.run(3000);
  EXPECT_EQ(sim.stats().collisions, 0u);
  EXPECT_GT(sim.stats().delivered, 0u);
}

TEST(Simulator, DutyCycledUsesLessEnergyThanNonSleeping) {
  const std::size_t n = 25, d = 2;
  const Schedule base = core::non_sleeping_from_family(comb::polynomial_family(5, 2, n));
  const Schedule duty = core::construct_duty_cycled(base, d, 5, 5);
  util::Xoshiro256 rng(10);
  const net::Graph g = net::random_bounded_degree_graph(n, d, n, rng);
  const EnergyModel energy;

  DutyCycledScheduleMac mac_ns(base);
  BernoulliTraffic t1(n, 0.002);
  Simulator s1(g, mac_ns, t1, {.seed = 11});
  s1.run(5000);

  DutyCycledScheduleMac mac_dc(duty);
  BernoulliTraffic t2(n, 0.002);
  Simulator s2(g, mac_dc, t2, {.seed = 11});
  s2.run(5000);

  EXPECT_LT(s2.stats().total_energy_mj(energy), 0.5 * s1.stats().total_energy_mj(energy));
}

TEST(Simulator, LatencyBoundedByFrameForOneHopTdma) {
  const Schedule s = tdma_schedule(4);
  DutyCycledScheduleMac mac(s);
  BernoulliTraffic traffic(4, 0.01);
  Simulator sim(net::ring_graph(4), mac, traffic, {.seed = 12});
  sim.run(8000);
  ASSERT_GT(sim.stats().delivered, 0u);
  // Ring of 4: max 2 hops; each hop waits at most one frame (L = 4) when
  // uncontended, plus queueing. p99 should sit well under a few frames.
  EXPECT_LE(sim.stats().latency.percentile(50), 2 * s.frame_length());
}

TEST(Simulator, TopologyChangeKeepsScheduleMacDelivering) {
  const std::size_t n = 16, d = 3;
  const Schedule base =
      core::non_sleeping_from_family(comb::build_plan(comb::best_plan(n, d), n));
  DutyCycledScheduleMac mac(base);
  BernoulliTraffic traffic(n, 0.01);
  util::Xoshiro256 rng(13);
  net::Graph g0 = net::random_bounded_degree_graph(n, d, 2 * n, rng);
  Simulator sim(g0, mac, traffic, {.seed = 13});
  std::uint64_t last_delivered = 0;
  for (int epoch = 0; epoch < 5; ++epoch) {
    sim.run(2000);
    EXPECT_GT(sim.stats().delivered, last_delivered) << "epoch " << epoch;
    last_delivered = sim.stats().delivered;
    sim.set_graph(net::random_bounded_degree_graph(n, d, 2 * n, rng));
  }
}

TEST(Simulator, ColoringTdmaRequiresRecoloringOnChurn) {
  util::Xoshiro256 rng(14);
  const net::Graph g = net::random_bounded_degree_graph(20, 3, 30, rng);
  ColoringTdmaMac mac(g);
  BernoulliTraffic traffic(20, 0.01);
  Simulator sim(g, mac, traffic, {.seed = 14});
  sim.run(500);
  EXPECT_EQ(mac.recolor_count(), 0u);
  sim.set_graph(net::random_bounded_degree_graph(20, 3, 30, rng));
  EXPECT_EQ(mac.recolor_count(), 1u);
}

TEST(Simulator, QueueDropsCountedWhenCapacityExceeded) {
  // Node 0 can never transmit (empty schedule for it) but traffic keeps
  // arriving: the queue fills, then drops.
  std::vector<DynamicBitset> t = {DynamicBitset(2, {1})};
  const Schedule s = Schedule::non_sleeping(2, std::move(t));
  DutyCycledScheduleMac mac(s);
  BernoulliTraffic traffic(2, 1.0);  // a packet per node per slot
  Simulator sim(net::path_graph(2), mac, traffic, {.seed = 15, .queue_capacity = 4});
  sim.run(100);
  EXPECT_GT(sim.stats().queue_drops, 0u);
}

TEST(Simulator, ConvergecastDeliversToSink) {
  const std::size_t n = 16, d = 4;
  const net::Graph g = net::grid_graph(4, 4);
  const Schedule base =
      core::non_sleeping_from_family(comb::build_plan(comb::best_plan(n, d), n));
  const Schedule duty = core::construct_duty_cycled(base, d, 2, 6);
  DutyCycledScheduleMac mac(duty);
  ConvergecastTraffic traffic(n, 0, 0.002);
  Simulator sim(g, mac, traffic, {.seed = 16});
  sim.run(30000);
  EXPECT_GT(sim.stats().generated, 0u);
  // Steady in-flight backlog keeps the instantaneous ratio below 1.
  EXPECT_GT(sim.stats().delivery_ratio(), 0.8);
  EXPECT_EQ(sim.stats().delivered_by_origin[0], 0u);  // sink generates nothing
  // The base here is TDMA (best plan for n=16, D=4), so every constructed
  // slot has a single transmitter: collisions are structurally impossible.
  EXPECT_EQ(sim.stats().collisions, 0u);
}

// A periodic schedule over fewer nodes than the graph is rejected before
// the first slot, in Release too (TTDC_ASSERT is always on): the MAC's
// per-node queries would read past the schedule's sets. One over more
// nodes keeps the per-node path.
TEST(Simulator, RejectsAScheduleOverFewerNodesThanTheGraph) {
  check::ScopedThrowOnViolation guard;
  util::Xoshiro256 rng(18);
  const Schedule small = core::random_alpha_schedule(10, 12, 2, 3, false, rng);
  DutyCycledScheduleMac small_mac(small);
  ConvergecastTraffic traffic(200, 0, 0.05);
  EXPECT_THROW(Simulator(net::path_graph(200), small_mac, traffic, {.seed = 18}),
               check::ContractViolation);

  const Schedule large = core::random_alpha_schedule(300, 12, 40, 80, false, rng);
  DutyCycledScheduleMac large_mac(large);
  Simulator sim(net::path_graph(200), large_mac, traffic, {.seed = 18});
  sim.run(1000);
  EXPECT_EQ(sim.stats().slots_run, 1000u);
  EXPECT_GT(sim.stats().transmissions, 0u);
}

TEST(Simulator, StatsSummaryRenders) {
  const Schedule s = tdma_schedule(3);
  DutyCycledScheduleMac mac(s);
  BernoulliTraffic traffic(3, 0.01);
  Simulator sim(net::path_graph(3), mac, traffic, {.seed = 17});
  sim.run(500);
  const std::string summary = sim.stats().summary(EnergyModel{});
  EXPECT_NE(summary.find("delivered"), std::string::npos);
  EXPECT_NE(summary.find("mJ"), std::string::npos);
}

}  // namespace
}  // namespace ttdc::sim
