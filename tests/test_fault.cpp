// ttdc::fault — deterministic fault injection (sim/fault.hpp, DESIGN.md §12).
// Covers: plan derivation determinism and per-class stream separation, the
// Gilbert-Elliott channel math, crash/recover/jam/battery-spike semantics
// against hand-written event lists, the armed-but-empty bit-identity
// contract, golden equality between a MAC's batched slot sets and the same
// MAC behind ScalarOnlyMac with a generative plan armed,
// and fault instants in the flight record, whose complete stream rebuilds
// the storm's SimStats, and in the registry the storm's SimStats publish to.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "combinatorics/constructions.hpp"
#include "combinatorics/params.hpp"
#include "core/builders.hpp"
#include "core/construct.hpp"
#include "net/topology.hpp"
#include "obs/export.hpp"
#include "obs/flight_query.hpp"
#include "obs/flight_recorder.hpp"
#include "sim/fault.hpp"
#include "sim/mac.hpp"
#include "sim/simulator.hpp"
#include "support/scalar_only_mac.hpp"
#include "support/sleeper_mac.hpp"
#include "support/stats_equal.hpp"

namespace ttdc::sim {
namespace {

using core::Schedule;
using obs::FlightEvent;
using obs::FlightRecorder;

constexpr std::size_t kN = 36;
constexpr std::size_t kD = 4;
constexpr std::uint64_t kSlots = 10000;

net::Graph test_graph(std::uint64_t seed = 21) {
  util::Xoshiro256 rng(seed);
  return net::random_bounded_degree_graph(kN, kD, 2 * kN, rng);
}

Schedule duty_schedule() {
  return core::construct_duty_cycled(
      core::non_sleeping_from_family(comb::build_plan(comb::best_plan(kN, kD), kN)), kD, 4,
      kN / 3);
}

FaultPlanConfig stormy_config(std::uint64_t horizon) {
  FaultPlanConfig cfg;
  cfg.horizon_slots = horizon;
  cfg.crash_rate = 5e-5;
  cfg.mean_downtime_slots = 150.0;
  cfg.link_loss.p_good_to_bad = 0.01;
  cfg.link_loss.p_bad_to_good = 0.1;
  cfg.max_drift_per_slot = 1e-4;
  cfg.drift_guard = 0.25;
  cfg.resync_interval = 2000;
  cfg.battery_spike_rate = 2e-5;
  cfg.battery_spike_mj = 5.0;
  cfg.num_jammers = 2;
  cfg.jam_duty = 0.05;
  cfg.jam_burst_slots = 100;
  return cfg;
}

// ---------------------------------------------------------------------------
// Plan derivation

TEST(FaultPlan, SameTripleYieldsIdenticalPlan) {
  const FaultPlanConfig cfg = stormy_config(50000);
  const FaultPlan a(cfg, kN, 0xabcdef);
  const FaultPlan b(cfg, kN, 0xabcdef);
  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_TRUE(a.events()[i] == b.events()[i]) << "event " << i;
  }
  EXPECT_EQ(a.link_stream_seed(), b.link_stream_seed());
  EXPECT_EQ(a.drift_rates(), b.drift_rates());
  // A different seed must not reproduce the same world.
  const FaultPlan c(cfg, kN, 0xabcdf0);
  EXPECT_TRUE(a.events() != c.events());
}

TEST(FaultPlan, FaultClassesDrawFromSeparateStreams) {
  // Adding battery spikes and jammers to a config must not perturb the
  // crash/recover schedule — each class has its own SplitMix64 child.
  FaultPlanConfig crashes_only;
  crashes_only.horizon_slots = 50000;
  crashes_only.crash_rate = 5e-5;
  crashes_only.mean_downtime_slots = 150.0;

  FaultPlanConfig everything = crashes_only;
  everything.battery_spike_rate = 2e-5;
  everything.battery_spike_mj = 5.0;
  everything.num_jammers = 2;
  everything.jam_duty = 0.05;

  const FaultPlan lean(crashes_only, kN, 7);
  const FaultPlan full(everything, kN, 7);

  auto crash_events = [](const FaultPlan& p) {
    std::vector<FaultEvent> out;
    for (const auto& e : p.events()) {
      if (e.kind == FaultEvent::Kind::kCrash || e.kind == FaultEvent::Kind::kRecover) {
        out.push_back(e);
      }
    }
    return out;
  };
  EXPECT_TRUE(crash_events(lean) == crash_events(full));
  EXPECT_GT(full.count(FaultEvent::Kind::kBatterySpike), 0u);
  EXPECT_GT(full.count(FaultEvent::Kind::kJamStart), 0u);
}

TEST(FaultPlan, EventsSortedAndCountsConsistent) {
  const FaultPlan plan(stormy_config(50000), kN, 99);
  ASSERT_FALSE(plan.events().empty());
  for (std::size_t i = 1; i < plan.events().size(); ++i) {
    EXPECT_LE(plan.events()[i - 1].slot, plan.events()[i].slot);
  }
  std::size_t total = 0;
  for (int k = 0; k <= static_cast<int>(FaultEvent::Kind::kJamEnd); ++k) {
    total += plan.count(static_cast<FaultEvent::Kind>(k));
  }
  EXPECT_EQ(total, plan.events().size());
  // Every recovery is preceded by a crash for that node, so counts can
  // differ by at most one outstanding downtime per node.
  EXPECT_GE(plan.count(FaultEvent::Kind::kCrash), plan.count(FaultEvent::Kind::kRecover));
  EXPECT_FALSE(plan.summary().empty());
}

TEST(GilbertElliott, StationaryBadAndArming) {
  GilbertElliott ge;
  EXPECT_FALSE(ge.armed());  // defaults: never leaves Good
  EXPECT_EQ(ge.stationary_bad(), 0.0);
  ge.p_good_to_bad = 0.02;
  ge.p_bad_to_good = 0.08;
  EXPECT_TRUE(ge.armed());
  EXPECT_DOUBLE_EQ(ge.stationary_bad(), 0.2);
  ge.loss_bad = 0.0;
  ge.loss_good = 0.0;
  EXPECT_FALSE(ge.armed());  // transitions without loss are harmless
}

// ---------------------------------------------------------------------------
// World semantics against explicit event lists

TEST(FaultWorld, CrashSuppressesNodeAndRecoveryRestoresIt) {
  const Schedule s = duty_schedule();
  DutyCycledScheduleMac mac(s);
  BernoulliTraffic traffic(kN, 0.01);
  std::vector<FaultEvent> events;
  events.push_back({.slot = 100, .node = 3, .magnitude_mj = 0.0,
                    .kind = FaultEvent::Kind::kCrash});
  events.push_back({.slot = 400, .node = 3, .magnitude_mj = 0.0,
                    .kind = FaultEvent::Kind::kRecover});
  const FaultPlan plan(events, kN);
  SimConfig cfg;
  cfg.seed = 41;
  cfg.fault_plan = &plan;
  Simulator sim(test_graph(), mac, traffic, cfg);

  sim.run(150);  // past slot 100: the crash has been applied
  EXPECT_TRUE(sim.is_down(3));
  EXPECT_EQ(sim.stats().fault_crashes, 1u);
  EXPECT_EQ(sim.stats().fault_recoveries, 0u);
  sim.run(300);  // past slot 400: recovered
  EXPECT_FALSE(sim.is_down(3));
  EXPECT_EQ(sim.stats().fault_recoveries, 1u);
}

TEST(FaultWorld, CrashedSaturatedSourceStopsDelivering) {
  // Single saturated flow 0 -> 1; crash the source for the whole run and
  // nothing can be delivered, while the identical run without the crash
  // delivers plenty.
  auto run_with = [&](const FaultPlan* plan) {
    const Schedule s = duty_schedule();
    DutyCycledScheduleMac mac(s);
    Simulator* probe = nullptr;
    SaturatedFlows traffic({{0, 1}},
                           [&probe](std::size_t v) { return probe->queue_size(v); });
    SimConfig cfg;
    cfg.seed = 42;
    cfg.fault_plan = plan;
    Simulator sim(test_graph(), mac, traffic, cfg);
    probe = &sim;
    sim.run(kSlots);
    return sim.stats().delivered;
  };
  std::vector<FaultEvent> events;
  events.push_back({.slot = 0, .node = 0, .magnitude_mj = 0.0,
                    .kind = FaultEvent::Kind::kCrash});
  const FaultPlan down_forever(events, kN);
  EXPECT_EQ(run_with(&down_forever), 0u);
  EXPECT_GT(run_with(nullptr), 0u);
}

TEST(FaultWorld, JammerDegradesDeliveryAndCounts) {
  auto run_with = [&](const FaultPlan* plan) {
    const Schedule s = duty_schedule();
    DutyCycledScheduleMac mac(s);
    BernoulliTraffic traffic(kN, 0.02);
    SimConfig cfg;
    cfg.seed = 43;
    cfg.fault_plan = plan;
    Simulator sim(test_graph(), mac, traffic, cfg);
    sim.run(kSlots);
    return sim.stats();
  };
  // One jammer blanketing the whole run.
  std::vector<FaultEvent> events;
  events.push_back({.slot = 0, .node = 5, .magnitude_mj = 0.0,
                    .kind = FaultEvent::Kind::kJamStart});
  events.push_back({.slot = kSlots - 1, .node = 5, .magnitude_mj = 0.0,
                    .kind = FaultEvent::Kind::kJamEnd});
  const FaultPlan jammed(events, kN);
  const SimStats with = run_with(&jammed);
  const SimStats without = run_with(nullptr);
  EXPECT_EQ(with.fault_jam_bursts, 1u);
  EXPECT_GT(with.collisions, without.collisions);
  EXPECT_LT(with.delivered, without.delivered);
}

TEST(FaultWorld, BatterySpikeDrainsAndCanKill) {
  const Schedule s = duty_schedule();
  DutyCycledScheduleMac mac(s);
  BernoulliTraffic traffic(kN, 0.0);  // no traffic: isolate the energy model
  std::vector<FaultEvent> events;
  events.push_back({.slot = 50, .node = 2, .magnitude_mj = 40.0,
                    .kind = FaultEvent::Kind::kBatterySpike});
  events.push_back({.slot = 60, .node = 7, .magnitude_mj = 1e9,
                    .kind = FaultEvent::Kind::kBatterySpike});
  const FaultPlan plan(events, kN);
  SimConfig cfg;
  cfg.seed = 44;
  cfg.battery_mj = 1e6;
  cfg.fault_plan = &plan;
  Simulator sim(test_graph(), mac, traffic, cfg);
  sim.run(100);
  EXPECT_EQ(sim.stats().fault_battery_spikes, 2u);
  // Node 2 lost the spike on top of normal drain; a peer with the same
  // radio schedule class can't have drained 40 mJ more than node 2 kept.
  EXPECT_LT(sim.remaining_battery_mj(2), 1e6 - 40.0);
  EXPECT_FALSE(sim.is_alive(7));  // overdrained clean through its budget
  EXPECT_TRUE(sim.is_alive(2));
  EXPECT_EQ(sim.stats().deaths, 1u);
}

// A spike lands before its slot's drain, so it kills only when the credit
// left no longer covers the sleep drain of the slots already run. Against
// a pure sleeper (budget B - 1000 * b_sleep at slot 1000), a spike of
// exactly that much kills it in slot 1000, and a spike 0.01 mJ short
// leaves ceil(0.01 mJ / b_sleep) more slots — which also pins that a spike
// lowers the min-credit bound, since nothing else ever charges a sleeper.
// Against a listener, a spike leaving less than one slot of sleep must not
// kill early: the node still listens in that slot and dies at its end.
TEST(FaultWorld, BatterySpikeSettlesAgainstSleepDrain) {
  constexpr std::size_t kNodes = 8;
  constexpr std::size_t kSleeper = 3;
  constexpr double kBatteryMj = 3.0;
  EnergyModel energy;  // cheap radio: the other nodes outlive the run
  energy.transmit_mw = 0.0035;
  energy.receive_mw = 0.0035;
  energy.listen_mw = 0.0035;
  energy.wakeup_mj = 1e-5;
  struct Outcome {
    std::uint64_t death_slot;
    std::uint64_t listen_slots;  // of the spiked node
  };
  const auto spike = [&](std::size_t node, std::uint64_t slot, double magnitude_mj) {
    const FaultPlan plan({{.slot = slot, .node = node, .magnitude_mj = magnitude_mj,
                           .kind = FaultEvent::Kind::kBatterySpike}},
                         kNodes);
    SleeperMac mac(kNodes, kSleeper);
    BernoulliTraffic traffic(kNodes, 0.0);
    SimConfig cfg;
    cfg.seed = 50;
    cfg.battery_mj = kBatteryMj;
    cfg.energy = energy;
    cfg.fault_plan = &plan;
    Simulator sim(net::ring_graph(kNodes), mac, traffic, cfg);
    sim.run(2000);
    EXPECT_FALSE(sim.is_alive(node));
    EXPECT_EQ(sim.stats().deaths, 1u);
    return Outcome{sim.stats().first_death_slot,
                   sim.stats().state_slots[node][static_cast<std::size_t>(RadioState::kListen)]};
  };
  // 3 mJ - 1000 slots x 3e-5 mJ = 2.97 mJ left when the spike lands.
  EXPECT_EQ(spike(kSleeper, 1000, 2.97).death_slot, 1000u);
  EXPECT_EQ(spike(kSleeper, 1000, 2.96).death_slot, 1000u + 334 - 1);

  // Node 1 listens (after a wakeup) in frame slot 1. By slot 1001 = 8 * 125
  // + 1 it has listened and woken 125 times and slept the other 876 slots.
  const auto units = [](double mj) { return std::llround(mj * 1e9); };
  const std::int64_t left = units(kBatteryMj) -
                            125 * (units(energy.energy_mj(RadioState::kListen, 1)) +
                                   units(energy.wakeup_mj)) -
                            876 * units(energy.energy_mj(RadioState::kSleep, 1));
  const double magnitude_mj = static_cast<double>(left - 10000) / 1e9;
  ASSERT_EQ(units(magnitude_mj), left - 10000);  // 10 000 units < one sleep slot
  const Outcome listener = spike(1, 1001, magnitude_mj);
  EXPECT_EQ(listener.death_slot, 1001u);
  EXPECT_EQ(listener.listen_slots, 126u);
}

TEST(FaultWorld, BurstLossOnAlwaysBadChannelStopsDelivery) {
  // Degenerate Gilbert-Elliott: Good -> Bad immediately and never back.
  FaultPlanConfig cfg;
  cfg.link_loss.p_good_to_bad = 1.0;
  cfg.link_loss.p_bad_to_good = 0.0;
  cfg.link_loss.loss_bad = 1.0;
  const FaultPlan plan({}, kN, cfg, 5);
  const Schedule s = duty_schedule();
  DutyCycledScheduleMac mac(s);
  BernoulliTraffic traffic(kN, 0.02);
  SimConfig sim_cfg;
  sim_cfg.seed = 45;
  sim_cfg.fault_plan = &plan;
  Simulator sim(test_graph(), mac, traffic, sim_cfg);
  sim.run(kSlots);
  EXPECT_GT(sim.stats().transmissions, 0u);
  EXPECT_GT(sim.stats().burst_losses, 0u);
  EXPECT_EQ(sim.stats().delivered, 0u);
  EXPECT_EQ(sim.stats().hop_successes, 0u);
}

TEST(FaultWorld, UnboundedDriftEventuallyLosesTransmissions) {
  FaultPlanConfig cfg;
  cfg.max_drift_per_slot = 1e-3;
  cfg.drift_guard = 0.25;
  cfg.resync_interval = 0;  // never resync: misalignment grows linearly
  const FaultPlan plan({}, kN, cfg, 6);
  ASSERT_TRUE(plan.has_drift());
  const Schedule s = duty_schedule();
  DutyCycledScheduleMac mac(s);
  BernoulliTraffic traffic(kN, 0.02);
  SimConfig sim_cfg;
  sim_cfg.seed = 46;
  sim_cfg.fault_plan = &plan;
  Simulator sim(test_graph(), mac, traffic, sim_cfg);
  sim.run(kSlots);
  EXPECT_GT(sim.stats().drift_losses, 0u);
}

// ---------------------------------------------------------------------------
// Determinism contracts

TEST(FaultWorld, ArmedEmptyPlanIsBitIdenticalToUnarmed) {
  // The cost contract in SimConfig: fault randomness never touches the
  // simulator's own RNG, so an armed plan with nothing in it reproduces the
  // unarmed run exactly — also with batteries, where the bare MAC's whole
  // frames are charged at once (DESIGN.md §8) armed or not.
  const FaultPlan empty(std::vector<FaultEvent>{}, kN);
  auto run_with = [&](const FaultPlan* plan, bool scalar, double battery_mj) {
    const Schedule s = duty_schedule();
    DutyCycledScheduleMac mac(s);
    ScalarOnlyMac scalar_mac(mac);
    BernoulliTraffic traffic(kN, 0.02);
    SimConfig cfg;
    cfg.seed = 47;
    cfg.packet_error_rate = 0.01;  // exercise the channel RNG stream too
    cfg.fault_plan = plan;
    cfg.battery_mj = battery_mj;
    Simulator sim(test_graph(), scalar ? static_cast<MacProtocol&>(scalar_mac) : mac,
                  traffic, cfg);
    sim.run(kSlots);
    return sim.stats();
  };
  for (const double battery_mj : {0.0, 1000.0}) {
    for (bool scalar : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "battery " << battery_mj << " scalar " << scalar);
      const SimStats armed = run_with(&empty, scalar, battery_mj);
      const SimStats unarmed = run_with(nullptr, scalar, battery_mj);
      expect_identical_stats(armed, unarmed);
      if (battery_mj > 0.0) {
        EXPECT_GT(armed.deaths, 0u);
        expect_identical_stats(armed, run_with(&empty, !scalar, battery_mj));
      }
    }
  }
}

// The full storm (crashes, bursty loss, drift, spikes, jammers). Spikes
// here take 60% of the budget: one is survivable, two are fatal, and radio
// drain alone cannot reach 40% of it in kSlots, so every death is a spike
// kill landing on the credit arithmetic both pipelines share.
FaultPlan full_storm() {
  FaultPlanConfig storm = stormy_config(kSlots);
  storm.battery_spike_rate = 1e-4;
  storm.battery_spike_mj = 6e4;
  return FaultPlan(storm, kN, 0xdead);
}

/// Runs the full storm through the batched slot sets, or through the
/// per-node fallback when `scalar`, recording into `recorder` if non-null.
SimStats run_storm(const FaultPlan& plan, bool scalar, FlightRecorder* recorder = nullptr) {
  const Schedule s = duty_schedule();
  DutyCycledScheduleMac mac(s);
  ScalarOnlyMac scalar_mac(mac);
  BernoulliTraffic traffic(kN, 0.02);
  SimConfig cfg;
  cfg.seed = 48;
  cfg.battery_mj = 1e5;
  cfg.fault_plan = &plan;
  cfg.recorder = recorder;
  Simulator sim(test_graph(), scalar ? static_cast<MacProtocol&>(scalar_mac) : mac, traffic,
                cfg);
  sim.run(kSlots);
  return sim.stats();
}

TEST(FaultWorld, PipelinesStayGoldenWithStormArmed) {
  // The storm must preserve golden equality between the batched slot sets
  // and the per-node fallback — fault handling sits on the phases both
  // share.
  const FaultPlan plan = full_storm();
  ASSERT_FALSE(plan.events().empty());
  const SimStats scalar = run_storm(plan, true);
  const SimStats batched = run_storm(plan, false);
  expect_identical_stats(scalar, batched);
  // The storm must actually have done something, or this test is vacuous.
  EXPECT_GT(scalar.fault_crashes + scalar.burst_losses + scalar.fault_jam_bursts, 0u);
  EXPECT_GT(scalar.deaths, 0u) << "no spike killed a node";
  EXPECT_LT(scalar.deaths, scalar.fault_battery_spikes) << "no spike was survived";
}

TEST(FaultWorld, SamePlanSameSeedReproducesStats) {
  const FaultPlan plan(stormy_config(kSlots), kN, 0xfeed);
  auto run_once = [&] {
    const Schedule s = duty_schedule();
    DutyCycledScheduleMac mac(s);
    BernoulliTraffic traffic(kN, 0.02);
    SimConfig cfg;
    cfg.seed = 49;
    cfg.fault_plan = &plan;
    Simulator sim(test_graph(), mac, traffic, cfg);
    sim.run(kSlots);
    return sim.stats();
  };
  expect_identical_stats(run_once(), run_once());
}

// ---------------------------------------------------------------------------
// Observability

TEST(FaultWorld, FlightStreamRebuildsStormStats) {
  // Under the full storm, on both pipelines, the complete flight stream
  // accounts for every counter: packet outcomes, fault instants, fault
  // losses, per-origin deliveries and latency samples.
  const FaultPlan plan = full_storm();
  for (const bool scalar : {false, true}) {
    FlightRecorder recorder(1 << 17);
    const SimStats live = run_storm(plan, scalar, &recorder);
    ASSERT_FALSE(recorder.wrapped());
    EXPECT_GT(live.fault_crashes, 0u);
    EXPECT_GT(live.fault_recoveries, 0u);
    EXPECT_GT(live.fault_battery_spikes, 0u);
    EXPECT_GT(live.fault_jam_bursts, 0u);
    EXPECT_GT(live.burst_losses, 0u);
    EXPECT_GT(live.drift_losses, 0u);
    EXPECT_GT(live.collisions, 0u);
    EXPECT_GT(live.receiver_asleep, 0u);
    const auto mismatches = obs::FlightLog(recorder.events()).self_check(live);
    EXPECT_TRUE(mismatches.empty())
        << (scalar ? "scalar" : "batched") << ": " << mismatches.size()
        << " mismatch(es), first: " << (mismatches.empty() ? "" : mismatches.front());
  }
}

// publish_sim_stats is the one bridge from SimStats to a registry. On the
// storm, where every counter moves, each of the 17 counters reads its
// SimStats value exactly once, as ttdc_sim_<name>_total (no gauge repeats
// it), the latency histogram holds every sample, and publishing again
// overwrites instead of adding.
TEST(FaultWorld, PublishSimStatsCountsEveryCounterOnce) {
  const SimStats stats = run_storm(full_storm(), false);
  std::vector<std::pair<std::string, std::uint64_t>> expected = {
      {"slots_run", stats.slots_run}, {"deaths", stats.deaths}};
  for (const auto& c : obs::kStreamCounters) {
    expected.emplace_back(c.name, stats.*c.field);
  }
  ASSERT_EQ(expected.size(), 17u);
  for (const std::uint64_t fault_count :
       {stats.fault_crashes, stats.fault_recoveries, stats.fault_battery_spikes,
        stats.fault_jam_bursts, stats.burst_losses, stats.drift_losses, stats.deaths}) {
    ASSERT_GT(fault_count, 0u);
  }

  obs::MetricsRegistry registry;
  obs::publish_sim_stats(stats, registry);
  const std::string text = obs::prometheus_text(registry);
  obs::publish_sim_stats(stats, registry);
  EXPECT_EQ(obs::prometheus_text(registry), text) << "a second publish must overwrite";

  std::map<std::string, std::uint64_t> counters;
  const obs::MetricSnapshot* latency = nullptr;
  const std::vector<obs::MetricSnapshot> snapshot = registry.snapshot();
  for (const obs::MetricSnapshot& m : snapshot) {
    if (m.type == obs::MetricSnapshot::Type::kCounter) counters[m.name] = m.counter_value;
    if (m.name == "ttdc_sim_latency_slots") latency = &m;
  }
  EXPECT_EQ(counters.size(), expected.size());
  for (const auto& [name, value] : expected) {
    const std::string exposed = "ttdc_sim_" + name + "_total";
    ASSERT_EQ(counters.count(exposed), 1u) << exposed;
    EXPECT_EQ(counters[exposed], value) << exposed;
    EXPECT_EQ(text.find("\nttdc_sim_" + name + " "), std::string::npos)
        << name << " is exposed twice";
  }
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->type, obs::MetricSnapshot::Type::kHistogram);
  EXPECT_EQ(latency->bounds.size(), 13u);
  EXPECT_EQ(latency->count, stats.latency.count());
  EXPECT_GT(latency->count, 0u);
}

TEST(FaultWorld, FaultInstantsLandInFlightRecord) {
  std::vector<FaultEvent> events;
  events.push_back({.slot = 10, .node = 4, .magnitude_mj = 0.0,
                    .kind = FaultEvent::Kind::kCrash});
  events.push_back({.slot = 30, .node = 4, .magnitude_mj = 0.0,
                    .kind = FaultEvent::Kind::kRecover});
  events.push_back({.slot = 20, .node = 8, .magnitude_mj = 0.0,
                    .kind = FaultEvent::Kind::kJamStart});
  const FaultPlan plan(events, kN);
  const Schedule s = duty_schedule();
  DutyCycledScheduleMac mac(s);
  BernoulliTraffic traffic(kN, 0.01);
  FlightRecorder recorder(4096);
  SimConfig cfg;
  cfg.seed = 50;
  cfg.fault_plan = &plan;
  cfg.recorder = &recorder;
  Simulator sim(test_graph(), mac, traffic, cfg);
  sim.run(100);

  bool saw_crash = false, saw_recover = false, saw_jam = false;
  for (const auto& e : recorder.events()) {
    switch (e.kind) {
      case FlightEvent::Kind::kFaultCrash:
        saw_crash = true;
        EXPECT_EQ(e.slot, 10u);
        EXPECT_EQ(e.node, 4u);
        EXPECT_EQ(e.packet_id, FlightEvent::kNoPacket);
        break;
      case FlightEvent::Kind::kFaultRecover:
        saw_recover = true;
        EXPECT_EQ(e.slot, 30u);
        EXPECT_EQ(e.aux, 20u);  // downtime in slots
        EXPECT_EQ(e.packet_id, FlightEvent::kNoPacket);
        break;
      case FlightEvent::Kind::kFaultJamStart:
        saw_jam = true;
        EXPECT_EQ(e.node, 8u);
        EXPECT_EQ(e.packet_id, FlightEvent::kNoPacket);
        break;
      default:
        break;
    }
  }
  EXPECT_TRUE(saw_crash);
  EXPECT_TRUE(saw_recover);
  EXPECT_TRUE(saw_jam);
}

TEST(FaultWorld, KindNamesAreStable) {
  EXPECT_STREQ(fault_kind_name(FaultEvent::Kind::kCrash), "crash");
  EXPECT_STREQ(fault_kind_name(FaultEvent::Kind::kRecover), "recover");
  EXPECT_STREQ(fault_kind_name(FaultEvent::Kind::kBatterySpike), "battery_spike");
  EXPECT_STREQ(fault_kind_name(FaultEvent::Kind::kJamStart), "jam_start");
  EXPECT_STREQ(fault_kind_name(FaultEvent::Kind::kJamEnd), "jam_end");
}

}  // namespace
}  // namespace ttdc::sim
