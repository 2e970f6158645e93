// Frame-level fast-forwarding (DESIGN.md §15): golden SimStats equality
// between a fast-forwarded run and a slot-by-slot run — all five MACs, the
// PR 6 fault storm armed and disarmed, n ∈ {50, 800, 10^4} — plus property
// tests pinning the invalidation contract: every single invalidation
// source (traffic arrival, battery death crossing, scheduled fault event,
// topology move, armed flight recorder) must force slot-accurate fallback,
// and randomized MACs must keep the engine idle entirely.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <memory>
#include <vector>

#include "combinatorics/constructions.hpp"
#include "combinatorics/params.hpp"
#include "core/builders.hpp"
#include "core/construct.hpp"
#include "net/domain_grid.hpp"
#include "net/topology.hpp"
#include "obs/flight_query.hpp"
#include "obs/flight_recorder.hpp"
#include "sim/fault.hpp"
#include "sim/mac.hpp"
#include "sim/simulator.hpp"
#include "support/sleeper_mac.hpp"
#include "support/stats_equal.hpp"
#include "util/check.hpp"

namespace ttdc::sim {
namespace {

constexpr std::size_t kMaxDegree = 6;

struct TestWorld {
  net::Positions pos;
  net::DomainGrid grid;
  net::Graph graph;
  core::Schedule schedule;
};

double radius_for(std::size_t n) {
  return std::min(0.4, std::sqrt(10.0 / static_cast<double>(n)));
}

TestWorld make_world(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  net::Positions pos = net::random_positions(n, rng);
  const double radius = radius_for(n);
  net::DomainGrid grid(pos, radius);
  net::Graph graph = net::unit_disk_graph(pos, radius, kMaxDegree, grid);
  core::Schedule schedule = core::construct_duty_cycled(
      core::non_sleeping_from_family(comb::build_plan(comb::best_plan(n, kMaxDegree), n)),
      kMaxDegree, 4, std::max<std::size_t>(4, n / 3));
  return {std::move(pos), std::move(grid), std::move(graph), std::move(schedule)};
}

// The PR 6 storm: crashes with recovery, a Gilbert-Elliott bursty channel,
// and roaming jammers (same shape as the megascale golden tests).
FaultPlan make_fault_plan(std::size_t n, std::uint64_t horizon, std::uint64_t seed) {
  FaultPlanConfig fc;
  fc.horizon_slots = horizon;
  fc.crash_rate = 3e-4;
  fc.mean_downtime_slots = 60.0;
  fc.link_loss.p_good_to_bad = 0.004;
  fc.link_loss.p_bad_to_good = 0.05;
  fc.link_loss.loss_bad = 0.6;
  fc.num_jammers = 2;
  fc.jam_duty = 0.05;
  fc.jam_burst_slots = 40;
  return FaultPlan(fc, n, seed);
}

enum class MacKind { kDutyCycled, kAloha, kUncoordinated, kCommonActive, kColoringTdma };

const char* mac_name(MacKind kind) {
  switch (kind) {
    case MacKind::kDutyCycled: return "duty_cycled";
    case MacKind::kAloha: return "aloha";
    case MacKind::kUncoordinated: return "uncoordinated";
    case MacKind::kCommonActive: return "common_active";
    case MacKind::kColoringTdma: return "coloring_tdma";
  }
  return "?";
}

std::unique_ptr<MacProtocol> make_mac(MacKind kind, const TestWorld& world) {
  const std::size_t n = world.graph.num_nodes();
  switch (kind) {
    case MacKind::kDutyCycled:
      return std::make_unique<DutyCycledScheduleMac>(world.schedule);
    case MacKind::kAloha:
      return std::make_unique<SlottedAlohaMac>(n, 0.1);
    case MacKind::kUncoordinated:
      return std::make_unique<UncoordinatedSleepMac>(n, 0.3, 0.4);
    case MacKind::kCommonActive:
      return std::make_unique<CommonActivePeriodMac>(n, 10, 3, 0.3);
    case MacKind::kColoringTdma:
      return std::make_unique<ColoringTdmaMac>(world.graph);
  }
  return nullptr;
}

struct RunOutcome {
  SimStats stats;
  FastForwardStats ff;
};

RunOutcome run_world(const TestWorld& world, MacKind kind, const FaultPlan* plan,
                     std::uint64_t slots, double rate, bool fast_forward,
                     double battery_mj = 2000.0, obs::FlightRecorder* recorder = nullptr) {
  const std::size_t n = world.graph.num_nodes();
  auto mac = make_mac(kind, world);
  // Same traffic seed either way: the source owns its stream, so the FF-on
  // and FF-off runs see the identical arrival realization by construction.
  LookaheadConvergecastTraffic traffic(n, /*sink=*/0, rate, /*seed=*/0x77 + n);
  SimConfig cfg;
  cfg.seed = 0xCAFE + n;
  cfg.battery_mj = battery_mj;
  cfg.fault_plan = plan;
  cfg.fast_forward = fast_forward;
  cfg.recorder = recorder;
  Simulator sim(world.graph, *mac, traffic, cfg);
  sim.run(slots);
  return {sim.stats(), sim.fast_forward_stats()};
}

// The headline golden gate: a fast-forwarded run is bit-identical to the
// slot-by-slot run, for every MAC, with and without the fault storm, at
// three sizes. Aggregate replay activity is asserted non-zero so the gate
// cannot silently pass with the engine never engaging.
TEST(FastForwardGolden, MatchesSlotAccurateRunAllMacsAllSizes) {
  std::uint64_t total_replayed = 0;
  for (const std::size_t n : {std::size_t{50}, std::size_t{800}, std::size_t{10000}}) {
    const std::uint64_t slots = n == 10000 ? 400 : 1600;
    // ~1 arrival per 300 slots in aggregate: long silent stretches for the
    // memo, frequent enough that frames with backlog are exercised too.
    const double rate = 0.0033 / static_cast<double>(n - 1);
    const TestWorld world = make_world(n, 0xBEEF + n);
    const FaultPlan plan = make_fault_plan(n, slots, 0x5AFE + n);
    for (const MacKind kind :
         {MacKind::kDutyCycled, MacKind::kAloha, MacKind::kUncoordinated,
          MacKind::kCommonActive, MacKind::kColoringTdma}) {
      for (const FaultPlan* p : {static_cast<const FaultPlan*>(nullptr), &plan}) {
        const RunOutcome plain = run_world(world, kind, p, slots, rate, false);
        const RunOutcome fast = run_world(world, kind, p, slots, rate, true);
        ASSERT_NO_FATAL_FAILURE(expect_identical_stats(plain.stats, fast.stats))
            << "n=" << n << " mac=" << mac_name(kind) << " faults=" << (p != nullptr);
        EXPECT_EQ(plain.ff.frames_replayed, 0u) << "flag off must keep the engine out";
        total_replayed += fast.ff.frames_replayed;
      }
    }
  }
  EXPECT_GT(total_replayed, 0u) << "the matrix never exercised a replay";
}

// An idle network under a periodic schedule is the engine's best case:
// after the first recorded frame, every whole frame replays (the self-loop
// path), so stepped slots stay O(one frame + ragged tail).
TEST(FastForwardGolden, IdleNetworkReplaysAlmostEverything) {
  const TestWorld world = make_world(60, 0xA0);
  const std::uint64_t slots = 20000;
  // Battery sized to outlive the run: no death crossing, so the only
  // stepped slots are the memo warmup (one record per distinct frame
  // boundary state — the schedule's rotation gives a handful) + the tail.
  const double battery = 1.0e7;
  const RunOutcome plain =
      run_world(world, MacKind::kDutyCycled, nullptr, slots, 0.0, false, battery);
  const RunOutcome fast =
      run_world(world, MacKind::kDutyCycled, nullptr, slots, 0.0, true, battery);
  ASSERT_NO_FATAL_FAILURE(expect_identical_stats(plain.stats, fast.stats));
  EXPECT_GT(fast.ff.frames_replayed, 0u);
  EXPECT_EQ(fast.ff.fallback_arrival, 0u);
  EXPECT_EQ(fast.ff.fallback_battery, 0u);
  EXPECT_EQ(fast.ff.fallback_verify, 0u);
  // Warmup is bounded by the boundary-state cycle, far shorter than the run.
  const std::uint64_t period = world.schedule.frame_length();
  EXPECT_GE(fast.ff.slots_replayed, slots - 12 * period);
}

// ---------------------------------------------------- invalidation sources

// Arrival inside every upcoming frame => the engine must never replay.
TEST(FastForwardInvalidation, ArrivalForcesFallback) {
  const TestWorld world = make_world(50, 0xA1);
  const std::uint64_t slots = 3000;
  const double saturating_rate = 0.05;  // aggregate ~1 arrival per slot
  const RunOutcome plain =
      run_world(world, MacKind::kDutyCycled, nullptr, slots, saturating_rate, false);
  const RunOutcome fast =
      run_world(world, MacKind::kDutyCycled, nullptr, slots, saturating_rate, true);
  ASSERT_NO_FATAL_FAILURE(expect_identical_stats(plain.stats, fast.stats));
  EXPECT_EQ(fast.ff.frames_replayed, 0u);
  EXPECT_GT(fast.ff.fallback_arrival, 0u);
}

// A battery death crossing inside the replay window must veto the replay so
// the death lands on its exact slot.
TEST(FastForwardInvalidation, BatteryCrossingForcesFallback) {
  const TestWorld world = make_world(30, 0xA2);
  const std::uint64_t slots = 40000;
  // Sized to die mid-run, well after replays begin (idle listen burns
  // roughly tens of mJ per frame), so the death crossing lands inside what
  // would otherwise be a replayable stretch.
  const double battery = 1500.0;
  const RunOutcome plain =
      run_world(world, MacKind::kDutyCycled, nullptr, slots, 0.0, false, battery);
  const RunOutcome fast =
      run_world(world, MacKind::kDutyCycled, nullptr, slots, 0.0, true, battery);
  ASSERT_NO_FATAL_FAILURE(expect_identical_stats(plain.stats, fast.stats));
  ASSERT_GT(plain.stats.deaths, 0u) << "test world never drained a battery";
  ASSERT_GT(plain.stats.first_death_slot, 2 * world.schedule.frame_length())
      << "deaths landed before replays could begin; raise the battery";
  EXPECT_EQ(fast.stats.first_death_slot, plain.stats.first_death_slot);
  EXPECT_GT(fast.ff.frames_replayed, 0u);
  EXPECT_GT(fast.ff.fallback_battery, 0u);
}

// The same veto when the crossing node is a pure SLEEPER: no memo entry
// carries a credit delta for it (its drain is the implicit sleep cost), so
// only the headroom check's per-frame sleep drain can stop the replay in
// time. No arrivals, so once the memo warms every frame is a self-loop and
// the engine would otherwise replay the whole rest of the run in one call.
// Run under three energy models: the stock one (awake nodes die within a
// few frames, the sleeper dies alone); a cheap radio barely above the sleep
// rate (awake nodes cross zero after long replays, often in a sleep slot
// before their next listen, so only a min-credit bound that the replay
// lowered finds them); and an inverted one where sleeping costs more than
// being awake (awake credits rise, the sleeper dies first in a live
// network).
TEST(FastForwardInvalidation, SleeperCrossingForcesFallback) {
  constexpr std::size_t kNodes = 8;
  constexpr std::size_t kSleeper = 5;
  EnergyModel cheap;
  cheap.transmit_mw = 0.0035;
  cheap.receive_mw = 0.0035;
  cheap.listen_mw = 0.0035;
  cheap.wakeup_mj = 1e-5;
  EnergyModel inverted;
  inverted.sleep_mw = 0.004;
  inverted.listen_mw = 0.003;
  inverted.receive_mw = 0.003;
  inverted.transmit_mw = 0.003;
  inverted.wakeup_mj = 0.0;
  for (const EnergyModel& energy : {EnergyModel{}, cheap, inverted}) {
    const auto run = [&](bool ff_on) {
      SleeperMac mac(kNodes, kSleeper);
      LookaheadConvergecastTraffic silent(kNodes, 0, 0.0, 0x70);
      SimConfig cfg;
      cfg.seed = 0xD1E;
      cfg.battery_mj = 2.0;  // the sleeper dies near slot 2.0 / (sleep_mw * 1e-2)
      cfg.energy = energy;
      cfg.fast_forward = ff_on;
      Simulator sim(net::ring_graph(kNodes), mac, silent, cfg);
      sim.run(90000);
      EXPECT_FALSE(sim.is_alive(kSleeper));
      return RunOutcome{sim.stats(), sim.fast_forward_stats()};
    };
    const RunOutcome plain = run(false);
    const RunOutcome fast = run(true);
    SCOPED_TRACE(::testing::Message() << "sleep_mw=" << energy.sleep_mw
                                      << " listen_mw=" << energy.listen_mw);
    ASSERT_NO_FATAL_FAILURE(expect_identical_stats(plain.stats, fast.stats));
    EXPECT_GT(plain.stats.deaths, 0u);
    EXPECT_GT(fast.ff.frames_replayed, 0u);
    EXPECT_GT(fast.ff.fallback_battery, 0u);
  }
}

// A scheduled fault event inside the frame must force slot-accurate
// stepping (the event applies on its exact slot).
TEST(FastForwardInvalidation, FaultEventForcesFallback) {
  const TestWorld world = make_world(50, 0xA3);
  const std::uint64_t slots = 20000;
  const FaultPlan plan = make_fault_plan(50, slots, 0xFA);
  ASSERT_FALSE(plan.events().empty());
  const RunOutcome plain = run_world(world, MacKind::kDutyCycled, &plan, slots, 0.0, false);
  const RunOutcome fast = run_world(world, MacKind::kDutyCycled, &plan, slots, 0.0, true);
  ASSERT_NO_FATAL_FAILURE(expect_identical_stats(plain.stats, fast.stats));
  EXPECT_GT(fast.ff.fallback_fault_event, 0u);
}

// set_graph (churn) must clear the memo: pre-move entries describe the old
// adjacency and may not survive into the new world.
TEST(FastForwardInvalidation, MoveInvalidatesMemo) {
  const TestWorld before = make_world(50, 0xA4);
  const TestWorld after = make_world(50, 0xA5);
  const std::uint64_t half = 8000;
  auto run = [&](bool ff_on) {
    auto mac = make_mac(MacKind::kDutyCycled, before);
    LookaheadConvergecastTraffic traffic(50, 0, 0.0, 0x50);
    SimConfig cfg;
    cfg.seed = 0xF00;
    cfg.fast_forward = ff_on;
    Simulator sim(before.graph, *mac, traffic, cfg);
    sim.run(half);
    const std::uint64_t recorded_before_move = sim.fast_forward_stats().frames_recorded;
    sim.set_graph(after.graph);
    sim.run(half);
    return std::make_tuple(sim.stats(), sim.fast_forward_stats(), recorded_before_move);
  };
  const auto [plain_stats, plain_ff, plain_recorded] = run(false);
  const auto [fast_stats, fast_ff, fast_recorded] = run(true);
  (void)plain_ff;
  (void)plain_recorded;
  ASSERT_NO_FATAL_FAILURE(expect_identical_stats(plain_stats, fast_stats));
  EXPECT_EQ(fast_ff.graph_invalidations, 1u);
  EXPECT_GT(fast_recorded, 0u);
  // The post-move world had to be re-recorded from scratch.
  EXPECT_GT(fast_ff.frames_recorded, fast_recorded);
  EXPECT_GT(fast_ff.frames_replayed, 0u);
}

// An armed flight recorder expects per-packet events replay cannot emit, so
// arming it must stall the engine — and disarming must release it.
TEST(FastForwardInvalidation, ArmedRecorderForcesFallback) {
  const TestWorld world = make_world(50, 0xA6);
  obs::FlightRecorder recorder(1024);
  auto mac = make_mac(MacKind::kDutyCycled, world);
  LookaheadConvergecastTraffic traffic(50, 0, 0.0, 0x60);
  SimConfig cfg;
  cfg.seed = 0xFEE;
  cfg.recorder = &recorder;
  cfg.fast_forward = true;
  Simulator sim(world.graph, *mac, traffic, cfg);
  obs::FlightRecorder::enable(true);
  sim.run(4000);
  const FastForwardStats armed = sim.fast_forward_stats();
  EXPECT_EQ(armed.frames_replayed, 0u);
  EXPECT_GT(armed.fallback_recorder, 0u);
  obs::FlightRecorder::enable(false);
  sim.run(4000);
  obs::FlightRecorder::enable(true);  // the arming flag is process-wide
  const FastForwardStats disarmed = sim.fast_forward_stats();
  EXPECT_GT(disarmed.frames_replayed, 0u);
}

// One event stream at any fast-forward setting: with the engine off and on
// (where the armed recorder vetoes frames), the complete stream rebuilds the
// live SimStats, and the two runs' SimStats are identical.
TEST(FastForwardInvalidation, FlightStreamRebuildsStatsWithFastForwardOnAndOff) {
  const TestWorld world = make_world(50, 0xA8);
  const std::uint64_t slots = 4000;
  const FaultPlan plan = make_fault_plan(50, slots, 0x5AFF);
  RunOutcome outcome[2];
  for (const bool fast : {false, true}) {
    obs::FlightRecorder recorder(1 << 16);
    outcome[fast] = run_world(world, MacKind::kDutyCycled, &plan, slots, 0.02 / 49.0, fast,
                              2000.0, &recorder);
    ASSERT_GT(recorder.seen(), 0u);
    ASSERT_FALSE(recorder.wrapped());
    const auto mismatches = obs::FlightLog(recorder.events()).self_check(outcome[fast].stats);
    EXPECT_TRUE(mismatches.empty())
        << "fast_forward=" << fast << ": " << mismatches.size()
        << " mismatch(es), first: " << (mismatches.empty() ? "" : mismatches.front());
  }
  expect_identical_stats(outcome[0].stats, outcome[1].stats);
  EXPECT_GT(outcome[0].stats.delivered, 0u);
  EXPECT_GT(outcome[0].stats.fault_crashes, 0u);
  EXPECT_EQ(outcome[0].ff.fallback_recorder, 0u);
  EXPECT_GT(outcome[1].ff.fallback_recorder, 0u);
}

// Randomized MACs report no fast-forward period: the engine stays armed but
// must never record or replay a frame (their per-slot coins come from the
// simulator stream, so no frame ever provably repeats).
TEST(FastForwardInvalidation, RandomizedMacsNeverFastForward) {
  const TestWorld world = make_world(50, 0xA7);
  for (const MacKind kind :
       {MacKind::kAloha, MacKind::kUncoordinated, MacKind::kCommonActive}) {
    const RunOutcome fast = run_world(world, kind, nullptr, 2000, 0.0, true);
    EXPECT_EQ(fast.ff.frames_replayed, 0u) << mac_name(kind);
    EXPECT_EQ(fast.ff.frames_recorded, 0u) << mac_name(kind);
    EXPECT_EQ(fast.ff.slots_replayed, 0u) << mac_name(kind);
  }
}

// Opaque traffic sources (no lookahead) must keep the engine disarmed
// outright: all-zero stats even under a periodic MAC.
TEST(FastForwardInvalidation, OpaqueTrafficKeepsEngineDisarmed) {
  const TestWorld world = make_world(50, 0xA8);
  auto mac = make_mac(MacKind::kDutyCycled, world);
  ConvergecastTraffic traffic(50, 0, 0.001);
  SimConfig cfg;
  cfg.seed = 0xB00;
  cfg.fast_forward = true;
  Simulator sim(world.graph, *mac, traffic, cfg);
  sim.run(4000);
  const FastForwardStats ff = sim.fast_forward_stats();
  EXPECT_EQ(ff.frames_recorded, 0u);
  EXPECT_EQ(ff.frames_replayed, 0u);
  EXPECT_EQ(ff.fallback_arrival, 0u);
}

// --------------------------------------------- lookahead traffic contract

// next_emission() must predict generate() exactly, and skipping generate()
// for the quiet slots in between must not change the realization — the
// precise promise supports_lookahead() makes to the engine.
TEST(LookaheadTraffic, NextEmissionPredictsGenerateExactly) {
  const std::size_t n = 40;
  const std::uint64_t horizon = 20000;
  LookaheadConvergecastTraffic stepped(n, 3, 0.0005, 0x99);
  LookaheadConvergecastTraffic skipping(n, 3, 0.0005, 0x99);
  util::Xoshiro256 unused_rng(1);
  std::vector<std::pair<std::uint64_t, std::size_t>> stepped_arrivals;
  for (std::uint64_t slot = 0; slot < horizon; ++slot) {
    const std::uint64_t predicted = stepped.next_emission(slot);
    stepped.generate(slot, unused_rng, [&](std::size_t origin, std::size_t dst) {
      EXPECT_EQ(predicted, slot) << "emission not predicted at slot " << slot;
      EXPECT_EQ(dst, 3u);
      EXPECT_NE(origin, 3u);
      stepped_arrivals.emplace_back(slot, origin);
    });
    if (predicted != slot) {
      EXPECT_GT(predicted, slot) << "prediction in the past at slot " << slot;
    }
  }
  ASSERT_FALSE(stepped_arrivals.empty());
  // Drive the twin by jumping straight between predicted slots.
  std::vector<std::pair<std::uint64_t, std::size_t>> skipped_arrivals;
  for (std::uint64_t slot = skipping.next_emission(0); slot < horizon;
       slot = skipping.next_emission(slot)) {
    skipping.generate(slot, unused_rng, [&](std::size_t origin, std::size_t) {
      skipped_arrivals.emplace_back(slot, origin);
    });
  }
  EXPECT_EQ(stepped_arrivals, skipped_arrivals);
}

// A skip that jumped past a pending arrival would drop it and every later
// one (only generate() advances the stream), so generating at a slot past
// it is a contract violation.
TEST(LookaheadTraffic, GeneratePastAPendingArrivalViolatesContract) {
  LookaheadConvergecastTraffic traffic(40, 3, 0.01, 0x5);
  util::Xoshiro256 unused_rng(1);
  const std::uint64_t due = traffic.next_emission(0);
  ASSERT_NE(due, TrafficSource::kNoEmission);
  check::ScopedThrowOnViolation guard;
  const auto late = [&] {
    traffic.generate(due + 1, unused_rng, [](std::size_t, std::size_t) {});
  };
  if (check::library_checks_enabled()) {
    EXPECT_THROW(late(), check::ContractViolation);
  } else {
    EXPECT_NO_THROW(late());  // Release compiles the check out
  }
}

TEST(LookaheadTraffic, ZeroRateNeverEmits) {
  LookaheadConvergecastTraffic traffic(10, 0, 0.0, 0x1);
  EXPECT_EQ(traffic.next_emission(0), TrafficSource::kNoEmission);
  util::Xoshiro256 rng(2);
  for (std::uint64_t slot = 0; slot < 100; ++slot) {
    traffic.generate(slot, rng, [&](std::size_t, std::size_t) {
      FAIL() << "zero-rate source emitted at slot " << slot;
    });
  }
}

// The campaign surface: CampaignOptions::fast_forward reaches cell bodies
// through CellContext::fast_forward() (wiring verified in test_runner.cpp
// style; here just the option plumbing matters to the sim layer).

}  // namespace
}  // namespace ttdc::sim
