// Battery depletion and network lifetime.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "combinatorics/constructions.hpp"
#include "combinatorics/params.hpp"
#include "core/builders.hpp"
#include "core/construct.hpp"
#include "net/topology.hpp"
#include "sim/mac.hpp"
#include "sim/simulator.hpp"
#include "support/drain_model.hpp"
#include "support/scalar_only_mac.hpp"
#include "support/sleeper_mac.hpp"
#include "support/stats_equal.hpp"
#include "util/check.hpp"

namespace ttdc::sim {
namespace {

using core::Schedule;

TEST(Lifetime, UnlimitedBatteryNeverDies) {
  const Schedule s = core::non_sleeping_from_family(comb::tdma_family(4));
  DutyCycledScheduleMac mac(s);
  BernoulliTraffic traffic(4, 0.05);
  Simulator sim(net::ring_graph(4), mac, traffic, {.seed = 1});  // battery_mj = 0
  sim.run(5000);
  EXPECT_EQ(sim.stats().deaths, 0u);
  EXPECT_EQ(sim.alive_count(), 4u);
  EXPECT_EQ(sim.stats().first_death_slot, ~std::uint64_t{0});
}

TEST(Lifetime, IdleTdmaNodesDieOnSchedule) {
  // TDMA n=3 with no traffic: a node listens 2 of every 3 slots (0.62 mJ
  // each), sleeps its own slot (0.00003 mJ), and pays one 0.06 mJ wakeup
  // per frame -> ~1.30 mJ per 3-slot frame. A 62 mJ battery lasts
  // ~47.6 frames ~ 143 slots.
  const Schedule s = core::non_sleeping_from_family(comb::tdma_family(3));
  DutyCycledScheduleMac mac(s);
  BernoulliTraffic no_traffic(3, 0.0);
  SimConfig config;
  config.seed = 2;
  config.battery_mj = 62.0;
  Simulator sim(net::path_graph(3), mac, no_traffic, config);
  sim.run(300);
  EXPECT_EQ(sim.stats().deaths, 3u);
  EXPECT_EQ(sim.alive_count(), 0u);
  EXPECT_GT(sim.stats().first_death_slot, 135u);
  EXPECT_LT(sim.stats().first_death_slot, 150u);
  EXPECT_DOUBLE_EQ(sim.remaining_battery_mj(0), 0.0);
}

TEST(Lifetime, DutyCyclingExtendsLifetime) {
  const std::size_t n = 25, d = 2;
  const Schedule base = core::non_sleeping_from_family(comb::polynomial_family(5, 2, n));
  const Schedule duty = core::construct_duty_cycled(base, d, 5, 5);
  util::Xoshiro256 rng(3);
  const net::Graph g = net::random_bounded_degree_graph(n, d, n, rng);

  auto first_death = [&](const Schedule& schedule) {
    DutyCycledScheduleMac mac(schedule);
    BernoulliTraffic traffic(n, 0.001);
    SimConfig config;
    config.seed = 4;
    config.battery_mj = 400.0;
    Simulator sim(g, mac, traffic, config);
    sim.run(30000);
    return sim.stats().first_death_slot;
  };
  const auto ns_death = first_death(base);
  const auto duty_death = first_death(duty);
  ASSERT_NE(ns_death, ~std::uint64_t{0});  // always-on must die in budget
  // ~0.2 duty cycle -> several-fold lifetime extension.
  EXPECT_GT(duty_death, 3 * ns_death);
}

TEST(Lifetime, SurvivorsKeepDeliveringAfterDeaths) {
  // Topology transparency covers node death: degrees only shrink, so the
  // untouched schedule keeps serving the survivors.
  const std::size_t n = 16, d = 3;
  const Schedule duty = core::construct_duty_cycled(
      core::non_sleeping_from_family(comb::build_plan(comb::best_plan(n, d), n)), d, 3, 6);
  DutyCycledScheduleMac mac(duty);
  BernoulliTraffic traffic(n, 0.01);
  util::Xoshiro256 rng(5);
  SimConfig config;
  config.seed = 5;
  config.battery_mj = 800.0;
  // Give node 0 a head start on death by making it a saturated hub? Keep
  // it simple: equal batteries; deaths happen when duty budgets run out.
  Simulator sim(net::random_bounded_degree_graph(n, d, 2 * n, rng), mac, traffic, config);
  std::uint64_t delivered_before = 0;
  bool saw_post_death_delivery = false;
  for (int epoch = 0; epoch < 40; ++epoch) {
    sim.run(1000);
    if (sim.stats().deaths > 0 && sim.stats().deaths < n &&
        sim.stats().delivered > delivered_before) {
      saw_post_death_delivery = true;
    }
    delivered_before = sim.stats().delivered;
    if (sim.alive_count() == 0) break;
  }
  EXPECT_GT(sim.stats().deaths, 0u);
  EXPECT_TRUE(saw_post_death_delivery)
      << "network should keep delivering between first death and blackout";
}

TEST(Lifetime, DeadOriginStopsGenerating) {
  const Schedule s = core::non_sleeping_from_family(comb::tdma_family(2));
  DutyCycledScheduleMac mac(s);
  BernoulliTraffic traffic(2, 1.0);
  SimConfig config;
  config.seed = 6;
  config.battery_mj = 31.0;  // ~50 slots at listen power
  Simulator sim(net::path_graph(2), mac, traffic, config);
  sim.run(60);
  const auto generated_at_death = sim.stats().generated;
  sim.run(200);
  EXPECT_EQ(sim.alive_count(), 0u);
  EXPECT_EQ(sim.stats().generated, generated_at_death);
}

// A node that only ever sleeps is never charged by phase 3: its drain is
// the implicit per-slot sleep cost, and its death is found through the
// min-credit bound alone. The death slot must be exactly the slot in which
// the cumulative sleep drain reaches the budget, ceil(B / b_sleep) - 1, and
// every pipeline — batched or per-node MAC, fast-forward on or off — must
// agree on it, on SimStats, and on every node's remaining budget.
TEST(Lifetime, SleepOnlyNodeDiesOnExactSlot) {
  constexpr std::size_t kNodes = 8;
  constexpr std::size_t kSleeper = 3;
  // Radio costs barely above the sleep rate keep the awake nodes alive for
  // ~94% of the sleeper's lifetime, so the bound is exercised under
  // traffic, transmissions, wakeups and awake deaths before the sleeper is
  // the last node standing.
  EnergyModel energy;
  energy.transmit_mw = 0.004;
  energy.receive_mw = 0.0035;
  energy.listen_mw = 0.0035;
  energy.wakeup_mj = 1e-5;
  // 3.00001 mJ over 3e-5 mJ per slot: the budget is not a whole number of
  // sleep slots, so the exact death slot exercises the rounding.
  const double battery_mj = 3.00001;
  const auto units = [](double mj) { return std::llround(mj * 1e9); };
  const std::int64_t budget = units(battery_mj);
  const std::int64_t sleep = units(energy.energy_mj(RadioState::kSleep, 1));
  const auto death_slot = static_cast<std::uint64_t>((budget + sleep - 1) / sleep - 1);
  ASSERT_EQ(death_slot, 100000u);

  const std::vector<std::uint64_t> checkpoints = {25000, 50000, 75000, death_slot,
                                                  death_slot + 1, death_slot + 20000};
  struct Outcome {
    SimStats stats;
    std::vector<std::vector<double>> remaining;  // [checkpoint][node]
    std::vector<bool> sleeper_alive;             // [checkpoint]
  };
  const auto run = [&](bool scalar_only, bool fast_forward) {
    SleeperMac mac(kNodes, kSleeper);
    ScalarOnlyMac scalar_mac(mac);
    LookaheadConvergecastTraffic traffic(kNodes, /*sink=*/0, /*rate=*/2e-4, /*seed=*/0x51);
    SimConfig config;
    config.seed = 7;
    config.battery_mj = battery_mj;
    config.energy = energy;
    config.fast_forward = fast_forward;
    Simulator sim(net::ring_graph(kNodes),
                  scalar_only ? static_cast<MacProtocol&>(scalar_mac) : mac, traffic, config);
    check::ScopedThrowOnViolation guard;
    Outcome out;
    for (const std::uint64_t checkpoint : checkpoints) {
      sim.run(checkpoint - sim.now());
      sim.audit_invariants();
      std::vector<double> remaining(kNodes);
      for (std::size_t v = 0; v < kNodes; ++v) {
        remaining[v] = sim.remaining_battery_mj(v);
        if (!sim.is_alive(v)) {
          EXPECT_EQ(remaining[v], 0.0) << "dead node " << v;
        }
      }
      out.remaining.push_back(std::move(remaining));
      out.sleeper_alive.push_back(sim.is_alive(kSleeper));
    }
    out.stats = sim.stats();
    return out;
  };

  const Outcome reference = run(/*scalar_only=*/false, /*fast_forward=*/false);
  // Alive through slot death_slot - 1, dead once slot death_slot has run.
  EXPECT_EQ(reference.sleeper_alive,
            (std::vector<bool>{true, true, true, true, false, false}));
  EXPECT_GT(reference.remaining[3][kSleeper], 0.0);
  EXPECT_GT(reference.stats.transmissions, 0u);
  EXPECT_GT(reference.stats.deaths, 1u);
  for (const bool scalar_only : {false, true}) {
    for (const bool fast_forward : {false, true}) {
      const Outcome other = run(scalar_only, fast_forward);
      SCOPED_TRACE(::testing::Message() << "scalar_only=" << scalar_only
                                        << " fast_forward=" << fast_forward);
      expect_identical_stats(reference.stats, other.stats);
      EXPECT_EQ(reference.remaining, other.remaining);
      EXPECT_EQ(reference.sleeper_alive, other.sleeper_alive);
    }
  }
}


// The listener counterpart: under DutyCycledScheduleMac the simulator
// charges whole frames' scheduled listening up front (DESIGN.md §8), so a
// listener's death inside a frame lands on its exact slot only if the
// no-death bound hands that frame to the per-slot phase 3. Silent network:
// every node's drain is a pure function of the schedule (drain_model.hpp).
TEST(Lifetime, ListenerDiesMidFrameOnExactSlot) {
  constexpr std::size_t kN = 20, kD = 3;
  const Schedule s = core::construct_duty_cycled(
      core::non_sleeping_from_family(comb::build_plan(comb::best_plan(kN, kD), kN)), kD, 4,
      kN / 2);
  const std::uint64_t frame = s.frame_length();
  const EnergyModel energy;
  // The node that has drained most by the middle of the third frame dies
  // first, at its next listen slot.
  const std::uint64_t middle = 2 * frame + frame / 2;
  std::size_t x = 0;
  std::vector<std::vector<std::int64_t>> drain(kN);
  for (std::size_t v = 0; v < kN; ++v) {
    drain[v] = model_drain(s, v, /*transmits=*/false, energy, 6 * frame);
    if (drain[v][middle] > drain[x][middle]) x = v;
  }
  std::uint64_t death = middle;
  while (!s.receivers(death % frame).test(x)) ++death;
  ASSERT_LT(death, 3 * frame - 1);  // strictly inside the third frame
  const std::int64_t budget = drain[x][death];
  ASSERT_EQ(units(static_cast<double>(budget) / 1e9), budget);
  std::uint64_t first = ~std::uint64_t{0};
  for (std::size_t v = 0; v < kN; ++v) first = std::min(first, model_death_slot(drain[v], budget));
  ASSERT_EQ(first, death);

  struct Outcome {
    SimStats stats;
    std::vector<std::vector<double>> remaining;  // [checkpoint][node]
  };
  // Checkpoints on frame boundaries only, so the dying frame runs whole.
  const std::vector<std::uint64_t> checkpoints = {2 * frame, 3 * frame, 6 * frame};
  const auto run = [&](bool scalar_only, bool fast_forward) {
    DutyCycledScheduleMac mac(s);
    ScalarOnlyMac scalar_mac(mac);
    BernoulliTraffic silent(kN, 0.0);
    SimConfig config;
    config.seed = 11;
    config.battery_mj = static_cast<double>(budget) / 1e9;
    config.fast_forward = fast_forward;
    util::Xoshiro256 rng(12);
    Simulator sim(net::random_bounded_degree_graph(kN, kD, 2 * kN, rng),
                  scalar_only ? static_cast<MacProtocol&>(scalar_mac) : mac, silent, config);
    Outcome out;
    for (const std::uint64_t checkpoint : checkpoints) {
      sim.run(checkpoint - sim.now());
      std::vector<double> remaining(kN);
      for (std::size_t v = 0; v < kN; ++v) remaining[v] = sim.remaining_battery_mj(v);
      out.remaining.push_back(std::move(remaining));
    }
    out.stats = sim.stats();
    return out;
  };
  const Outcome reference = run(/*scalar_only=*/true, /*fast_forward=*/false);
  EXPECT_EQ(reference.stats.first_death_slot, death);
  for (const bool fast_forward : {false, true}) {
    SCOPED_TRACE(::testing::Message() << "fast_forward=" << fast_forward);
    const Outcome charged = run(/*scalar_only=*/false, fast_forward);
    expect_identical_stats(reference.stats, charged.stats);
    EXPECT_EQ(reference.remaining, charged.remaining);
  }
}
}  // namespace
}  // namespace ttdc::sim
