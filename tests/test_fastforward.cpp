// Fast-forward (DESIGN.md §15): inside a charged span the simulator passes
// over the slots in which nobody can send. Golden SimStats equality between
// a run with the bare lookahead source, under which the skip arms, and the
// same source behind OpaqueTraffic, which never skips — all five MACs, the
// fault storm below armed and disarmed, n ∈ {50, 800, 10^4} — plus property
// tests pinning what stops a skip: a traffic arrival, a battery death
// crossing, a scheduled fault event, a topology move. Only the duty-cycled
// schedule MAC without an acting fault plan skips; an armed flight recorder
// does not stop it.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <memory>
#include <tuple>
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
#include "support/opaque_traffic.hpp"
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
  ChargedSpanStats spans;
};

/// Runs `world` under `kind` with lookahead convergecast traffic: bare, so
/// the skip arms, or behind OpaqueTraffic, the reference that never skips.
RunOutcome run_world(const TestWorld& world, MacKind kind, const FaultPlan* plan,
                     std::uint64_t slots, double rate, bool opaque,
                     double battery_mj = 2000.0, obs::FlightRecorder* recorder = nullptr) {
  const std::size_t n = world.graph.num_nodes();
  auto mac = make_mac(kind, world);
  // Same traffic seed either way: the source owns its stream, so the bare
  // and wrapped runs see the identical arrival realization by construction.
  LookaheadConvergecastTraffic bare(n, /*sink=*/0, rate, /*seed=*/0x77 + n);
  OpaqueTraffic wrapped(bare);
  SimConfig cfg;
  cfg.seed = 0xCAFE + n;
  cfg.battery_mj = battery_mj;
  cfg.fault_plan = plan;
  cfg.recorder = recorder;
  Simulator sim(world.graph, *mac, opaque ? static_cast<TrafficSource&>(wrapped) : bare, cfg);
  sim.run(slots);
  return {sim.stats(), sim.charged_span_stats()};
}

bool no_spans(const ChargedSpanStats& s) {
  return s.charged == 0 && s.per_slot == 0 && s.skipped == 0 && s.settled == 0;
}

// The headline golden gate: a run that skips is bit-identical to the
// reference that steps every slot, for every MAC, with and without the
// fault storm, at three sizes. It also pins which runs skip: only the
// duty-cycled schedule MAC without an acting fault plan, and those in
// aggregate do, so the gate cannot silently pass with the skip never
// engaging. The other four MACs advertise no periodic schedule, so their
// slots never form spans at all.
TEST(FastForwardGolden, MatchesSlotAccurateRunAllMacsAllSizes) {
  std::uint64_t total_skipped = 0;
  for (const std::size_t n : {std::size_t{50}, std::size_t{800}, std::size_t{10000}}) {
    const std::uint64_t slots = n == 10000 ? 400 : 1600;
    // ~1 arrival per 300 slots in aggregate: long silent stretches to skip,
    // frequent enough that spans with backlog are exercised too.
    const double rate = 0.0033 / static_cast<double>(n - 1);
    const TestWorld world = make_world(n, 0xBEEF + n);
    const FaultPlan plan = make_fault_plan(n, slots, 0x5AFE + n);
    for (const MacKind kind :
         {MacKind::kDutyCycled, MacKind::kAloha, MacKind::kUncoordinated,
          MacKind::kCommonActive, MacKind::kColoringTdma}) {
      for (const FaultPlan* p : {static_cast<const FaultPlan*>(nullptr), &plan}) {
        SCOPED_TRACE(::testing::Message() << "n=" << n << " mac=" << mac_name(kind)
                                          << " faults=" << (p != nullptr));
        const RunOutcome reference = run_world(world, kind, p, slots, rate, /*opaque=*/true);
        const RunOutcome fast = run_world(world, kind, p, slots, rate, /*opaque=*/false);
        ASSERT_NO_FATAL_FAILURE(expect_identical_stats(reference.stats, fast.stats));
        EXPECT_EQ(reference.spans.skipped, 0u) << "the opaque reference skipped";
        if (kind != MacKind::kDutyCycled) {
          EXPECT_TRUE(no_spans(reference.spans));
          EXPECT_TRUE(no_spans(fast.spans));
        } else if (p != nullptr) {
          EXPECT_EQ(fast.spans.skipped, 0u) << "skipped under an acting fault plan";
        } else {
          total_skipped += fast.spans.skipped;
        }
      }
    }
  }
  EXPECT_GT(total_skipped, 0u) << "the matrix never exercised a skip";
}

// An idle network under a periodic schedule is the skip's best case: no
// node ever holds a packet, so every slot of every charged span is passed
// over, the open tail included, and none is stepped.
TEST(FastForwardGolden, IdleNetworkReplaysAlmostEverything) {
  const TestWorld world = make_world(60, 0xA0);
  const std::uint64_t slots = 20000;
  // Battery sized to outlive the run: no death crossing, so every span is
  // charged.
  const double battery = 1.0e7;
  const RunOutcome reference =
      run_world(world, MacKind::kDutyCycled, nullptr, slots, 0.0, true, battery);
  const RunOutcome fast =
      run_world(world, MacKind::kDutyCycled, nullptr, slots, 0.0, false, battery);
  ASSERT_NO_FATAL_FAILURE(expect_identical_stats(reference.stats, fast.stats));
  EXPECT_EQ(fast.spans.skipped, slots);
  EXPECT_EQ(fast.spans.per_slot, 0u);
  EXPECT_EQ(reference.spans.skipped, 0u);
  EXPECT_EQ(reference.spans.charged, fast.spans.charged);
}

// ---------------------------------------------------- invalidation sources

// An arrival is due in nearly every slot, and the skip never passes one:
// every skipped slot is one in which the source emits nothing.
TEST(FastForwardInvalidation, ArrivalForcesFallback) {
  const TestWorld world = make_world(50, 0xA1);
  const std::uint64_t slots = 3000;
  const double saturating_rate = 0.05;  // aggregate ~2.5 arrivals per slot
  const RunOutcome reference =
      run_world(world, MacKind::kDutyCycled, nullptr, slots, saturating_rate, true);
  const RunOutcome fast =
      run_world(world, MacKind::kDutyCycled, nullptr, slots, saturating_rate, false);
  ASSERT_NO_FATAL_FAILURE(expect_identical_stats(reference.stats, fast.stats));
  // The same realization as run_world's source, walked arrival by arrival.
  LookaheadConvergecastTraffic twin(50, 0, saturating_rate, 0x77 + 50);
  util::Xoshiro256 unused_rng(1);
  std::uint64_t arrival_slots = 0;
  for (std::uint64_t slot = twin.next_emission(0); slot < slots;
       slot = twin.next_emission(slot)) {
    ++arrival_slots;
    twin.generate(slot, unused_rng, [](std::size_t, std::size_t) {});
  }
  ASSERT_GT(arrival_slots, slots * 8 / 10);
  EXPECT_LE(fast.spans.skipped, slots - arrival_slots);
  EXPECT_EQ(reference.spans.skipped, 0u);
}

// A span in which a battery could die is never charged, so it is stepped
// per slot, unskipped, and the death lands on its exact slot.
TEST(FastForwardInvalidation, BatteryCrossingForcesFallback) {
  const TestWorld world = make_world(30, 0xA2);
  const std::uint64_t slots = 40000;
  // Sized to die mid-run, well after skipping begins (idle listen burns
  // roughly tens of mJ per frame).
  const double battery = 1500.0;
  const RunOutcome reference =
      run_world(world, MacKind::kDutyCycled, nullptr, slots, 0.0, true, battery);
  const RunOutcome fast =
      run_world(world, MacKind::kDutyCycled, nullptr, slots, 0.0, false, battery);
  ASSERT_NO_FATAL_FAILURE(expect_identical_stats(reference.stats, fast.stats));
  ASSERT_GT(reference.stats.deaths, 0u) << "test world never drained a battery";
  ASSERT_GT(reference.stats.first_death_slot, 2 * world.schedule.frame_length())
      << "deaths landed before skipping could begin; raise the battery";
  EXPECT_EQ(fast.stats.first_death_slot, reference.stats.first_death_slot);
  EXPECT_GT(fast.spans.skipped, 0u);
  EXPECT_GT(fast.spans.per_slot, 0u);
}

// The same when the crossing node is a pure SLEEPER: no charge ever
// reaches it (its drain is the implicit sleep cost), so only the no-death
// bound against the sleep drain sends its dying frame to the per-slot path.
// No arrivals, so every charged span skips all of its slots. Run under
// three energy models: the stock one (awake nodes die within a few frames,
// the sleeper dies alone); a cheap radio barely above the sleep rate
// (awake nodes cross zero after long skipped stretches, often in a sleep
// slot before their next listen, so only a min-credit bound that the span
// charges lowered finds them); and an inverted one where sleeping costs
// more than being awake (awake credits rise, the sleeper dies first in a
// live network).
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
    const auto run = [&](bool opaque) {
      SleeperMac mac(kNodes, kSleeper);
      LookaheadConvergecastTraffic silent(kNodes, 0, 0.0, 0x70);
      OpaqueTraffic wrapped(silent);
      SimConfig cfg;
      cfg.seed = 0xD1E;
      cfg.battery_mj = 2.0;  // the sleeper dies near slot 2.0 / (sleep_mw * 1e-2)
      cfg.energy = energy;
      Simulator sim(net::ring_graph(kNodes), mac,
                    opaque ? static_cast<TrafficSource&>(wrapped) : silent, cfg);
      sim.run(90000);
      EXPECT_FALSE(sim.is_alive(kSleeper));
      return RunOutcome{sim.stats(), sim.charged_span_stats()};
    };
    const RunOutcome reference = run(true);
    const RunOutcome fast = run(false);
    SCOPED_TRACE(::testing::Message() << "sleep_mw=" << energy.sleep_mw
                                      << " listen_mw=" << energy.listen_mw);
    ASSERT_NO_FATAL_FAILURE(expect_identical_stats(reference.stats, fast.stats));
    EXPECT_GT(reference.stats.deaths, 0u);
    EXPECT_EQ(reference.spans.skipped, 0u);
    EXPECT_GT(fast.spans.skipped, 0u);
    EXPECT_GT(fast.spans.per_slot, 0u);
  }
}

// A fault plan with scheduled events charges no span, so nothing is
// skipped: each event applies on its exact slot.
TEST(FastForwardInvalidation, FaultEventForcesFallback) {
  const TestWorld world = make_world(50, 0xA3);
  const std::uint64_t slots = 20000;
  const FaultPlan plan = make_fault_plan(50, slots, 0xFA);
  ASSERT_FALSE(plan.events().empty());
  const RunOutcome reference = run_world(world, MacKind::kDutyCycled, &plan, slots, 0.0, true);
  const RunOutcome fast = run_world(world, MacKind::kDutyCycled, &plan, slots, 0.0, false);
  ASSERT_NO_FATAL_FAILURE(expect_identical_stats(reference.stats, fast.stats));
  EXPECT_GT(reference.stats.fault_crashes, 0u);
  EXPECT_EQ(fast.spans.skipped, 0u);
  EXPECT_EQ(fast.spans.charged, 0u);
  EXPECT_GT(fast.spans.per_slot, 0u);
}

// set_graph (churn) mid-run settles the frame the first call left open,
// and the skip resumes on the new topology; the run matches the reference
// across the move.
TEST(FastForwardInvalidation, MoveMidRunMatchesReference) {
  const TestWorld before = make_world(50, 0xA4);
  const TestWorld after = make_world(50, 0xA5);
  const std::uint64_t frame = before.schedule.frame_length();
  const std::uint64_t half = 8000;
  ASSERT_NE(half % frame, 0u) << "the first call must leave a frame open";
  const auto run = [&](bool opaque) {
    auto mac = make_mac(MacKind::kDutyCycled, before);
    LookaheadConvergecastTraffic bare(50, 0, 0.02 / 49.0, 0x50);
    OpaqueTraffic wrapped(bare);
    SimConfig cfg;
    cfg.seed = 0xF00;
    Simulator sim(before.graph, *mac, opaque ? static_cast<TrafficSource&>(wrapped) : bare,
                  cfg);
    sim.run(half);
    const ChargedSpanStats at_move = sim.charged_span_stats();
    sim.set_graph(after.graph);
    EXPECT_EQ(sim.charged_span_stats().settled, at_move.settled + 1);
    sim.run(half);
    return std::make_tuple(sim.stats(), at_move, sim.charged_span_stats());
  };
  const auto [reference_stats, reference_at_move, reference_spans] = run(true);
  const auto [fast_stats, fast_at_move, fast_spans] = run(false);
  ASSERT_NO_FATAL_FAILURE(expect_identical_stats(reference_stats, fast_stats));
  EXPECT_GT(reference_stats.delivered, 0u);
  EXPECT_EQ(reference_spans.skipped, 0u);
  EXPECT_GT(fast_at_move.skipped, 0u);
  EXPECT_GT(fast_spans.skipped, fast_at_move.skipped);
}

// One event stream whether slots are skipped or not: a skipped slot holds
// no transmission, arrival, drop, death or fault event, so with the
// recorder armed the skip still runs, and the complete stream rebuilds the
// live SimStats with and without skipping, with and without the fault
// storm (which stops the skip).
TEST(FastForwardInvalidation, FlightStreamRebuildsStatsWithFastForwardOnAndOff) {
  const TestWorld world = make_world(50, 0xA8);
  const std::uint64_t slots = 4000;
  const FaultPlan plan = make_fault_plan(50, slots, 0x5AFF);
  for (const FaultPlan* p : {static_cast<const FaultPlan*>(nullptr), &plan}) {
    RunOutcome outcome[2];
    for (const bool opaque : {true, false}) {
      SCOPED_TRACE(::testing::Message() << "faults=" << (p != nullptr) << " opaque=" << opaque);
      obs::FlightRecorder recorder(1 << 16);
      outcome[opaque] = run_world(world, MacKind::kDutyCycled, p, slots, 0.02 / 49.0, opaque,
                                  2000.0, &recorder);
      ASSERT_GT(recorder.seen(), 0u);
      ASSERT_FALSE(recorder.wrapped());
      const auto mismatches = obs::FlightLog(recorder.events()).self_check(outcome[opaque].stats);
      EXPECT_TRUE(mismatches.empty())
          << mismatches.size()
          << " mismatch(es), first: " << (mismatches.empty() ? "" : mismatches.front());
    }
    expect_identical_stats(outcome[1].stats, outcome[0].stats);
    EXPECT_GT(outcome[1].stats.delivered, 0u);
    EXPECT_EQ(outcome[1].spans.skipped, 0u);
    if (p == nullptr) {
      EXPECT_GT(outcome[0].spans.skipped, 0u) << "the armed recorder stopped the skip";
    } else {
      EXPECT_GT(outcome[1].stats.fault_crashes, 0u);
      EXPECT_EQ(outcome[0].spans.skipped, 0u);
    }
  }
}

// --------------------------------------------- lookahead traffic contract

// next_emission() must predict generate() exactly, and skipping generate()
// for the quiet slots in between must not change the realization — the
// precise promise supports_lookahead() makes to the simulator.
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

}  // namespace
}  // namespace ttdc::sim
