// Charged spans (DESIGN.md §8): under a MAC that advertises its periodic
// <T, R>, the simulator charges the scheduled listening and wakeups of each
// span it steps inside one frame (a whole frame, or the ragged head and
// tail a run() boundary leaves) once at the span start and only
// transmitters per slot. These tests hold that path to the per-slot phase 3
// of ScalarOnlyMac, which does not advertise a schedule: a seeded
// randomized differential over the scenario space, every span start and
// end of a short schedule, targeted cases for the slot-0 wake, the
// no-death bound and its clamp, and the closed form of a silent network's
// frames, whole and cut. Counts pin which spans were charged, which slots
// a charged span skipped under lookahead traffic (never behind
// OpaqueTraffic), and which frames left open across run() calls an
// observer settled.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "combinatorics/params.hpp"
#include "core/builders.hpp"
#include "core/construct.hpp"
#include "core/node_slots.hpp"
#include "core/throughput.hpp"
#include "net/topology.hpp"
#include "sim/fault.hpp"
#include "sim/mac.hpp"
#include "sim/simulator.hpp"
#include "support/drain_model.hpp"
#include "support/opaque_traffic.hpp"
#include "support/reference_frame_counts.hpp"
#include "support/scalar_only_mac.hpp"
#include "support/stats_equal.hpp"
#include "util/slot_set.hpp"

namespace ttdc::sim {
namespace {

using core::Schedule;

/// No packets, ever (lookahead-capable, so the skip arms).
class SilentTraffic final : public TrafficSource {
 public:
  void generate(std::uint64_t, util::Xoshiro256&, const EmitFn&) override {}
  [[nodiscard]] bool supports_lookahead() const override { return true; }
};

/// Silent traffic, bare (the skip arms) or behind OpaqueTraffic (it never
/// does).
std::unique_ptr<TrafficSource> silent_traffic(bool opaque) {
  auto silent = std::make_unique<SilentTraffic>();
  if (opaque) return std::make_unique<OpaqueTraffic>(std::move(silent));
  return silent;
}

/// One packet origin -> destination every slot: origin never runs dry.
class SteadySource final : public TrafficSource {
 public:
  SteadySource(std::size_t origin, std::size_t destination)
      : origin_(origin), destination_(destination) {}
  void generate(std::uint64_t, util::Xoshiro256&, const EmitFn& emit) override {
    emit(origin_, destination_);
  }

 private:
  std::size_t origin_;
  std::size_t destination_;
};

/// A 6-slot schedule over 4 nodes in which node 0 transmits in the last
/// slot and listens in slot 0, and node 2 listens in both (so the boot
/// frame's slot-0 wake differs from the cyclic one).
Schedule edge_schedule() {
  const std::vector<std::vector<std::size_t>> t = {{1}, {0}, {3}, {2}, {1}, {0}};
  const std::vector<std::vector<std::size_t>> r = {{0, 2}, {1, 3}, {0, 2},
                                                   {1, 3}, {2, 3}, {1, 2}};
  std::vector<util::SlotSet> ts, rs;
  for (std::size_t i = 0; i < t.size(); ++i) {
    ts.emplace_back(4);
    rs.emplace_back(4);
    for (const std::size_t v : t[i]) ts.back().set(v);
    for (const std::size_t v : r[i]) rs.back().set(v);
  }
  return Schedule(4, std::move(ts), std::move(rs));
}

struct RunOutcome {
  SimStats stats;
  std::vector<double> remaining;
  std::size_t alive = 0;
};

/// Runs `slots` slots in chunks of `chunk` (0 = one call) and snapshots the
/// end state; audit_invariants() between chunks (which settles a frame a
/// chunk left open, like any observer) and after the snapshot, whose
/// stats() settles a frame the last call left open.
RunOutcome run_split(Simulator& sim, std::uint64_t slots, std::uint64_t chunk) {
  const std::uint64_t end = sim.now() + slots;
  while (sim.now() < end) {
    sim.run(chunk == 0 ? end - sim.now() : std::min(chunk, end - sim.now()));
    sim.audit_invariants();
  }
  RunOutcome out;
  out.stats = sim.stats();
  for (std::size_t v = 0; v < sim.graph().num_nodes(); ++v) {
    out.remaining.push_back(sim.remaining_battery_mj(v));
  }
  out.alive = sim.alive_count();
  sim.audit_invariants();
  return out;
}

void expect_same_outcome(const RunOutcome& oracle, const RunOutcome& charged) {
  expect_identical_stats(oracle.stats, charged.stats);
  EXPECT_EQ(oracle.remaining, charged.remaining);
  EXPECT_EQ(oracle.alive, charged.alive);
}

/// Runs the edge schedule on a 4-ring with the given traffic maker and
/// config, under ScalarOnlyMac in one call and bare in one call and in
/// chunks of every length from 1 to L+1 (so every span start and end meets
/// the schedule's transmitters), and asserts identical outcomes. Returns the
/// oracle's.
template <typename MakeTraffic>
RunOutcome expect_edge_schedule_matches(MakeTraffic make_traffic, const SimConfig& config,
                                        std::uint64_t slots, bool aware = true) {
  const Schedule s = edge_schedule();
  DutyCycledScheduleMac inner(s, aware);
  ScalarOnlyMac scalar(inner);
  auto oracle_traffic = make_traffic();
  Simulator oracle_sim(net::ring_graph(4), scalar, *oracle_traffic, config);
  const RunOutcome oracle = run_split(oracle_sim, slots, 0);
  for (std::uint64_t chunk = 0; chunk <= s.frame_length() + 1; ++chunk) {
    SCOPED_TRACE(::testing::Message() << "chunk " << chunk);
    DutyCycledScheduleMac mac(s, aware);
    auto traffic = make_traffic();
    Simulator sim(net::ring_graph(4), mac, *traffic, config);
    expect_same_outcome(oracle, run_split(sim, slots, chunk));
  }
  return oracle;
}

TEST(ChargedFrames, TransmissionInLastSlotCancelsSlotZeroWake) {
  // Node 0 transmits in slot L-1 of every frame and listens in slot 0 of
  // the next, so it is awake across the boundary: no wake at slot 0, which
  // R[L-1] alone would predict. One wake per frame (at slot L-1) after the
  // boot frame's two.
  for (const bool aware : {true, false}) {
    SCOPED_TRACE(aware ? "aware senders" : "naive senders");
    const RunOutcome out = expect_edge_schedule_matches(
        [] { return std::make_unique<SteadySource>(0, 1); }, {.seed = 5}, 6 * 10, aware);
    EXPECT_EQ(out.stats.wake_transitions[0], 2u + 9u);
    EXPECT_EQ(out.stats.state_slots[0][static_cast<std::size_t>(RadioState::kTransmit)], 20u);
  }
}

TEST(ChargedFrames, BootFrameWakesListenersOfSlotZero) {
  // Node 2 listens in slots L-1 and 0: in steady state that is one run, but
  // from boot (nobody awake before slot 0) slot 0 is a wake of its own.
  const RunOutcome out = expect_edge_schedule_matches(
      [] { return std::make_unique<SilentTraffic>(); }, {.seed = 6}, 6 * 3);
  // recv(2) = {0, 2, 4, 5}: cyclic runs {4, 5, 0} and {2}.
  EXPECT_EQ(out.stats.wake_transitions[2], 3u * 2u + 1u);
}

TEST(ChargedFrames, TransmitterSurchargeKillsOnExactSlot) {
  // Transmitting is expensive and listening nearly free, so node 0 dies of
  // its own transmissions: at its transmit slot 6*3 + 5, the last slot of
  // the fourth frame. A bound that ignored the transmit term would charge
  // that frame and miss the death.
  EnergyModel e;
  e.transmit_mw = 400.0;
  e.listen_mw = 0.5;
  e.receive_mw = 0.5;
  const Schedule s = edge_schedule();
  const std::uint64_t death = 6 * 3 + 5;
  ASSERT_TRUE(s.transmitters(death % 6).test(0));
  const std::int64_t budget = model_drain(s, 0, /*transmits=*/true, e, death + 1)[death];
  SimConfig config{.seed = 7};
  config.energy = e;
  config.battery_mj = static_cast<double>(budget) / 1e9;
  ASSERT_EQ(units(config.battery_mj), budget);
  const RunOutcome out = expect_edge_schedule_matches(
      [] { return std::make_unique<SteadySource>(0, 1); }, config, 6 * 6);
  EXPECT_EQ(out.stats.first_death_slot, death);
  EXPECT_EQ(out.stats.deaths, 1u);
}

TEST(ChargedFrames, SleepDearerThanTransmitStillDiesOnExactSlot) {
  // With sleep dearer than transmit + wakeup a transmit slot is cheaper
  // than not transmitting, so the bound must not credit transmissions that
  // may never happen: in a silent network every node pays full sleep. Node
  // 0 listens least, so it drains fastest and dies first, on the last slot
  // of the third frame.
  EnergyModel e;
  e.sleep_mw = 200.0;
  const Schedule s = edge_schedule();
  const std::uint64_t death = 6 * 2 + 5;
  const std::int64_t budget = model_drain(s, 0, /*transmits=*/false, e, death + 1)[death];
  std::uint64_t first = ~std::uint64_t{0};
  for (std::size_t v = 0; v < 4; ++v) {
    first = std::min(first, model_death_slot(model_drain(s, v, false, e, 6 * 6), budget));
  }
  ASSERT_EQ(first, death);
  SimConfig config{.seed = 8};
  config.energy = e;
  config.battery_mj = static_cast<double>(budget) / 1e9;
  ASSERT_EQ(units(config.battery_mj), budget);
  for (const bool opaque : {true, false}) {
    const RunOutcome out =
        expect_edge_schedule_matches([opaque] { return silent_traffic(opaque); }, config, 6 * 6);
    EXPECT_EQ(out.stats.first_death_slot, death);
  }
}

// ---------------------------------------------------------------------------
// Charged-span accounting: which spans took the charged path. The outcome
// tests above cannot tell, because both paths give identical results.

TEST(ChargedSpanCounts, ScalarOnlyMacChargesNoSpan) {
  // ScalarOnlyMac advertises no schedule, so its slots never form spans;
  // the bare MAC on the same run charges every one.
  const Schedule s = edge_schedule();
  for (const bool scalar_only : {true, false}) {
    DutyCycledScheduleMac inner(s);
    ScalarOnlyMac scalar(inner);
    SteadySource traffic(0, 1);
    Simulator sim(net::ring_graph(4), scalar_only ? static_cast<MacProtocol&>(scalar) : inner,
                  traffic, {.seed = 3});
    sim.run(6 * 3 + 4);
    const ChargedSpanStats spans = sim.charged_span_stats();
    EXPECT_EQ(spans.charged, scalar_only ? 0u : 4u) << "scalar only " << scalar_only;
    EXPECT_EQ(spans.per_slot, 0u) << "scalar only " << scalar_only;
  }
}

TEST(ChargedSpanCounts, FaultPlanWithEventsChargesNoSpan) {
  // Three whole frames, then run() calls of 4 and 5 slots: [18, 22), then
  // [22, 24) and [24, 27), six spans. All charged without a plan, none
  // with a plan that has an event.
  const Schedule s = edge_schedule();
  const FaultPlan plan({{.slot = 7, .node = 2, .magnitude_mj = 0.0,
                         .kind = FaultEvent::Kind::kCrash}},
                       4);
  for (const bool armed : {false, true}) {
    DutyCycledScheduleMac mac(s);
    SteadySource traffic(0, 1);
    SimConfig config{.seed = 13};
    if (armed) config.fault_plan = &plan;
    Simulator sim(net::ring_graph(4), mac, traffic, config);
    sim.run(6 * 3);
    sim.run(4);
    sim.run(5);
    const ChargedSpanStats spans = sim.charged_span_stats();
    EXPECT_EQ(spans.charged, armed ? 0u : 6u) << "armed " << armed;
    EXPECT_EQ(spans.per_slot, armed ? 6u : 0u) << "armed " << armed;
  }
}

TEST(ChargedSpanCounts, PartialSpanSafeThroughItsStopIsCharged) {
  // One-slot spans from budgets that cover exactly one slot's worst case:
  // safe against the sleep drain paid through the span's stop, not through
  // the end of its frame. The no-death bound is the former, so the first
  // span is charged (a bound against the frame's end would send it to the
  // per-slot path, with identical outcomes, which only this count shows).
  const EnergyModel e;
  const std::int64_t sleep = units(e.energy_mj(RadioState::kSleep, 1));
  const std::int64_t worst =
      std::max<std::int64_t>({0, units(e.energy_mj(RadioState::kListen, 1)) - sleep,
                              units(e.energy_mj(RadioState::kTransmit, 1)) - sleep}) +
      std::max<std::int64_t>(0, units(e.wakeup_mj));
  const std::int64_t budget = sleep + worst + 1;
  const Schedule s = edge_schedule();
  ASSERT_LT(budget, static_cast<std::int64_t>(s.frame_length()) * sleep + worst + 1);
  SimConfig config{.seed = 12};
  config.energy = e;
  config.battery_mj = static_cast<double>(budget) / 1e9;
  ASSERT_EQ(units(config.battery_mj), budget);
  DutyCycledScheduleMac mac(s);
  SilentTraffic traffic;
  Simulator sim(net::ring_graph(4), mac, traffic, config);
  sim.run(1);
  EXPECT_EQ(sim.charged_span_stats().charged, 1u);
  EXPECT_EQ(sim.charged_span_stats().per_slot, 0u);
  expect_edge_schedule_matches([] { return std::make_unique<SilentTraffic>(); }, config, 6 * 3);
}

TEST(ChargedSpanCounts, SilentFramesStepNoSlotUnderFastForward) {
  // A silent network has no sender in any slot. Under lookahead traffic a
  // charged span skips every slot, in one call and in calls one slot short
  // of a frame alike; behind OpaqueTraffic every slot is stepped. All four
  // runs give the same outcome.
  const Schedule s = edge_schedule();
  const std::uint64_t frame = s.frame_length();
  const std::uint64_t k = 5;
  SimConfig config{.seed = 14};
  config.battery_mj = 1e3;
  std::unique_ptr<RunOutcome> reference;
  for (const bool opaque : {true, false}) {
    for (const bool ragged : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "opaque " << opaque << " ragged " << ragged);
      DutyCycledScheduleMac mac(s);
      const std::unique_ptr<TrafficSource> traffic = silent_traffic(opaque);
      Simulator sim(net::ring_graph(4), mac, *traffic, config);
      while (sim.now() < k * frame) {
        sim.run(ragged ? std::min(frame - 1, k * frame - sim.now()) : k * frame);
      }
      const ChargedSpanStats spans = sim.charged_span_stats();
      EXPECT_EQ(spans.per_slot, 0u);
      EXPECT_EQ(spans.skipped, opaque ? 0u : k * frame);
      const RunOutcome out = run_split(sim, 0, 0);
      if (reference == nullptr) {
        reference = std::make_unique<RunOutcome>(out);
      } else {
        expect_same_outcome(*reference, out);
      }
    }
  }
}

TEST(ChargedSpanCounts, OpenFramesSettleOnlyWhenObserved) {
  // Seeded ragged calls of 1 to L+1 slots. A call that ends inside a frame
  // leaves it open when the frame's start lies in that call (or at its
  // start); the next call continues it. Unobserved, nothing is settled.
  // Observed after every call, each cut frame is settled exactly once, at
  // its first cut (the call that opened it ends there); its later cuts are
  // ordinary partial spans. The first observer after a call is stats(),
  // remaining_battery_mj() or audit_invariants() in turn, and each settles
  // alone: the snapshot after it finds nothing left to settle. Both modes
  // match the per-slot oracle, after every call when observed and at the
  // end otherwise.
  const Schedule s = edge_schedule();
  const std::uint64_t frame = s.frame_length();
  util::Xoshiro256 rng(15);
  std::vector<std::uint64_t> calls;
  std::set<std::uint64_t> cut_frames;
  std::uint64_t total = 0;
  while (total < 30 * frame) {
    calls.push_back(1 + rng.below(frame + 1));
    total += calls.back();
    if (total % frame != 0) cut_frames.insert(total / frame);
  }
  SimConfig config{.seed = 16};
  config.battery_mj = 1e3;
  for (const bool observe : {false, true}) {
    SCOPED_TRACE(observe ? "observed" : "unobserved");
    // The per-slot oracle forms no spans, so its call boundaries are moot.
    DutyCycledScheduleMac inner(s);
    ScalarOnlyMac scalar(inner);
    SteadySource oracle_traffic(0, 1);
    Simulator oracle(net::ring_graph(4), scalar, oracle_traffic, config);
    DutyCycledScheduleMac mac(s);
    SteadySource traffic(0, 1);
    Simulator sim(net::ring_graph(4), mac, traffic, config);
    for (std::size_t k = 0; k < calls.size(); ++k) {
      sim.run(calls[k]);
      if (observe) {
        if (k % 3 == 0) (void)sim.stats();
        if (k % 3 == 1) (void)sim.remaining_battery_mj(0);
        if (k % 3 == 2) sim.audit_invariants();
        const std::uint64_t settled = sim.charged_span_stats().settled;
        oracle.run(calls[k]);
        expect_same_outcome(run_split(oracle, 0, 0), run_split(sim, 0, 0));
        EXPECT_EQ(sim.charged_span_stats().settled, settled);
      }
    }
    EXPECT_EQ(sim.charged_span_stats().settled, observe ? cut_frames.size() : 0u);
    EXPECT_EQ(sim.charged_span_stats().per_slot, 0u);
    oracle.run(sim.now() - oracle.now());
    expect_same_outcome(run_split(oracle, 0, 0), run_split(sim, 0, 0));
  }
  EXPECT_GT(cut_frames.size(), 10u);
}

/// Number of maximal cyclic runs of members in a bitset over L slots.
std::size_t cyclic_runs(const util::DynamicBitset& slots) {
  const std::size_t frame = slots.size();
  std::size_t runs = 0;
  for (std::size_t i = 0; i < frame; ++i) {
    if (slots.test(i) && !slots.test((i + frame - 1) % frame)) ++runs;
  }
  return runs;
}

TEST(ChargedFrames, SilentFramesMatchTheScheduleClosedForm) {
  // A silent network from boot over k whole frames: every node listens
  // k·|recv(x)| slots, wakes k times per cyclic run of recv(x) plus once at
  // boot when it listens in both slot L-1 and slot 0, and its remaining
  // budget is what those counts cost. The same k frames run once in one
  // call and once in seeded ragged chunks, whose spans start and end
  // anywhere in a frame; the closed form holds for both.
  // αR = n/2 puts three nodes in both R[L-1] and R[0].
  constexpr std::size_t kN = 20, kD = 3;
  const Schedule s = core::construct_duty_cycled(
      core::non_sleeping_from_family(comb::build_plan(comb::best_plan(kN, kD), kN)), kD, 4,
      kN / 2);
  const core::NodeSlots slots(s);
  const std::size_t frame = s.frame_length();
  const std::uint64_t k = 4;
  const EnergyModel e;
  const double battery_mj = 1e6;
  std::size_t boot_wakes = 0;
  for (const auto& [opaque, ragged] :
       {std::pair{true, false}, {false, false}, {true, true}, {false, true}}) {
    SCOPED_TRACE(::testing::Message() << "opaque " << opaque << " ragged " << ragged);
    DutyCycledScheduleMac mac(s);
    const std::unique_ptr<TrafficSource> traffic = silent_traffic(opaque);
    SimConfig config{.seed = 9};
    config.battery_mj = battery_mj;
    util::Xoshiro256 rng(10);
    Simulator sim(net::random_bounded_degree_graph(kN, kD, 2 * kN, rng), mac, *traffic, config);
    util::Xoshiro256 chunks(11);
    std::size_t cuts = 0;  // calls that end inside a frame
    while (sim.now() < k * frame) {
      const std::uint64_t chunk = ragged ? 1 + chunks.below(frame) : k * frame;
      sim.run(std::min(chunk, k * frame - sim.now()));
      cuts += sim.now() % frame != 0 ? 1 : 0;
    }
    EXPECT_EQ(cuts > 0, ragged);
    const SimStats& st = sim.stats();
    boot_wakes = 0;
    for (std::size_t x = 0; x < kN; ++x) {
      const std::uint64_t listen = slots.recv(x).count();
      const bool boot = s.receivers(0).test(x) && s.receivers(frame - 1).test(x);
      boot_wakes += boot ? 1 : 0;
      const std::uint64_t wakes = k * cyclic_runs(slots.recv(x)) + (boot ? 1 : 0);
      EXPECT_EQ(st.state_slots[x][static_cast<std::size_t>(RadioState::kListen)], k * listen);
      EXPECT_EQ(st.state_slots[x][static_cast<std::size_t>(RadioState::kTransmit)], 0u);
      EXPECT_EQ(st.wake_transitions[x], wakes);
      const std::int64_t spent =
          static_cast<std::int64_t>(k * listen) * units(e.energy_mj(RadioState::kListen, 1)) +
          static_cast<std::int64_t>(k * (frame - listen)) *
              units(e.energy_mj(RadioState::kSleep, 1)) +
          static_cast<std::int64_t>(wakes) * units(e.wakeup_mj);
      EXPECT_EQ(sim.remaining_battery_mj(x),
                static_cast<double>(units(battery_mj) - spent) / 1e9);
    }
  }
  EXPECT_GT(boot_wakes, 0u) << "the schedule exercises no boot wake";
}

// ---------------------------------------------------------------------------
// Seeded randomized differential: the charged path against ScalarOnlyMac
// over random schedules, senders, traffic (lookahead sources bare or behind
// OpaqueTraffic), batteries, energy models and run() splits, with a
// bounded share of networks above
// util::SlotSet::kDenseUniverse nodes, where sets follow their population.

struct Scenario {
  std::size_t n = 0, degree = 0, alpha_t = 0, alpha_r = 0;
  bool aware = true;
  bool lookahead = false;  // LookaheadConvergecastTraffic, else Bernoulli
  double rate = 0.0;
  int energy = 0;  // 0 stock, 1 sleep_mw = 70, 2 sleep_mw = 200
  double battery_mj = 0.0;
  bool opaque = false;  // lookahead traffic behind OpaqueTraffic: no skip
  int split = 0;  // 0 one call, 1 per frame, 2 random lengths, 3 1-7 slots
  // Observe (stats(), remaining_battery_mj(), audit_invariants()) after
  // every call, against the oracle at the same slot, or only at the end.
  bool observe = false;
  std::uint64_t slots = 0;
  std::uint64_t seed = 0;
  core::DivisionPolicy division = core::DivisionPolicy::kContiguous;  // Construct's

  [[nodiscard]] std::string describe() const {
    std::ostringstream os;
    os << "n=" << n << " D=" << degree << " aT=" << alpha_t << " aR=" << alpha_r
       << " aware=" << aware << " lookahead=" << lookahead << " rate=" << rate
       << " energy=" << energy << " battery_mj=" << battery_mj << " opaque=" << opaque
       << " split=" << split << " observe=" << observe << " slots=" << slots
       << " seed=" << seed
       << " balanced=" << (division == core::DivisionPolicy::kBalanced);
    return os.str();
  }
};

EnergyModel energy_model(int which) {
  EnergyModel e;
  if (which == 1) e.sleep_mw = 70.0;
  if (which == 2) e.sleep_mw = 200.0;
  return e;
}

const Schedule& cached_base(std::size_t n, std::size_t d) {
  static std::map<std::pair<std::size_t, std::size_t>, std::unique_ptr<Schedule>> cache;
  auto& slot = cache[{n, d}];
  if (slot == nullptr) {
    slot = std::make_unique<Schedule>(
        core::non_sleeping_from_family(comb::build_plan(comb::best_plan(n, d), n)));
  }
  return *slot;
}

const Schedule& cached_schedule(const Scenario& sc) {
  static std::map<std::tuple<std::size_t, std::size_t, std::size_t, std::size_t,
                             core::DivisionPolicy>,
                  std::unique_ptr<Schedule>>
      cache;
  auto& slot = cache[{sc.n, sc.degree, sc.alpha_t, sc.alpha_r, sc.division}];
  if (slot == nullptr) {
    slot = std::make_unique<Schedule>(core::construct_duty_cycled(
        cached_base(sc.n, sc.degree), sc.degree, sc.alpha_t, sc.alpha_r,
        {.division = sc.division}));
  }
  return *slot;
}

/// The kinds of block the scenario's Construct output holds.
core::ConstructBlocks scenario_blocks(const Scenario& sc) {
  return core::construct_blocks(cached_base(sc.n, sc.degree),
                                core::optimal_transmitters_alpha(sc.n, sc.degree, sc.alpha_t),
                                sc.alpha_r);
}

constexpr std::uint64_t kLargeEvery = 50;

Scenario draw_scenario(std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  const auto pick = [&](std::uint64_t lo, std::uint64_t hi) {  // inclusive
    return lo + rng.below(hi - lo + 1);
  };
  Scenario sc;
  sc.seed = seed;
  if (rng.below(kLargeEvery) == 0) {
    // More than 256 nodes, so the sets follow their population; half the
    // draws keep αR within the promote threshold, so R[i] is sparse too.
    // D ≤ 3 and a large αT keep the frame, which grows as n²/(αT·αR),
    // short: the oracle's per-slot cost grows with n.
    sc.n = pick(util::SlotSet::kDenseUniverse + 1, 300);
    sc.degree = pick(2, 3);
    sc.alpha_t = pick(12, 16);
    sc.alpha_r = rng.bernoulli(0.5) ? pick(12, util::SlotSet::promote_threshold(sc.n))
                                    : pick(sc.n / 5, sc.n / 2);
  } else {
    sc.n = pick(6, 40);
    sc.degree = pick(2, std::min<std::uint64_t>(5, sc.n - 1));
    sc.alpha_t = pick(1, 4);
    sc.alpha_r =
        pick(std::max<std::uint64_t>(1, sc.n / 5), std::max<std::uint64_t>(1, sc.n / 2));
    sc.alpha_r = std::min(sc.alpha_r, sc.n - sc.alpha_t);
  }
  // The draws above keep αR at most n/2, below every base receive side, so
  // one scenario in eight raises it past the smallest one and Construct
  // pads (Figure 2, line 8). The coins come from a stream of their own, so
  // a scenario they leave alone keeps every draw.
  util::Xoshiro256 pad_rng(seed ^ 0x9add1e5ull);
  const std::size_t smallest_r = sc.n - cached_base(sc.n, sc.degree).max_transmitters();
  if (pad_rng.below(8) == 0 && smallest_r < sc.n - sc.alpha_t) {
    sc.alpha_r = smallest_r + 1 + pad_rng.below(sc.n - sc.alpha_t - smallest_r);
  }
  sc.aware = rng.bernoulli(0.5);
  sc.lookahead = rng.bernoulli(0.5);
  const double rates[] = {0.0, 0.002, 0.01, 0.05};
  sc.rate = rates[rng.below(4)];
  sc.energy = static_cast<int>(rng.below(3));
  sc.opaque = !rng.bernoulli(0.5);
  sc.split = static_cast<int>(rng.below(4));
  // Theorem 7's frame length, which the division (drawn below) keeps.
  const std::uint64_t frame = core::constructed_frame_length(
      cached_base(sc.n, sc.degree),
      core::optimal_transmitters_alpha(sc.n, sc.degree, sc.alpha_t), sc.alpha_r);
  const std::uint64_t frames = sc.n > util::SlotSet::kDenseUniverse ? 1
                               : frame > 400                         ? 2
                                                                     : pick(2, 4);
  sc.slots = frames * frame + rng.below(frame);
  if (rng.bernoulli(0.5)) {
    // A budget around what a typical listener spends over the run, so some
    // nodes die and some do not.
    const EnergyModel e = energy_model(sc.energy);
    const double duty = static_cast<double>(sc.alpha_r) / static_cast<double>(sc.n);
    const double per_slot = duty * e.energy_mj(RadioState::kListen, 1) +
                            (1.0 - duty) * e.energy_mj(RadioState::kSleep, 1);
    const double fraction = 0.3 + 1.2 * rng.uniform01();
    sc.battery_mj = std::round(fraction * per_slot * static_cast<double>(sc.slots) * 1e3) / 1e3;
  }
  // Drawn last, so the draws above keep their values.
  sc.observe = rng.bernoulli(0.5);
  sc.division =
      rng.bernoulli(0.5) ? core::DivisionPolicy::kBalanced : core::DivisionPolicy::kContiguous;
  return sc;
}

std::unique_ptr<TrafficSource> make_traffic(const Scenario& sc) {
  if (!sc.lookahead) return std::make_unique<BernoulliTraffic>(sc.n, sc.rate);
  auto traffic =
      std::make_unique<LookaheadConvergecastTraffic>(sc.n, 0, sc.rate, sc.seed ^ 0xabc);
  if (sc.opaque) return std::make_unique<OpaqueTraffic>(std::move(traffic));
  return traffic;
}

/// What a scenario's charged run did, beyond matching the oracle.
struct ScenarioKinds {
  std::uint64_t deaths = 0;    // the oracle's
  bool skipped = false;        // a charged span skipped slots
  bool open_across = false;    // a frame stayed open across an unobserved call
  bool settled = false;        // an observer settled an open frame mid-run
  bool partial = false;        // an observed call charged a mid-frame partial span
};

/// Asserts the scenario's outcome equals the oracle's, after every call
/// when the scenario observes and at the end otherwise.
ScenarioKinds expect_scenario_matches(const Scenario& sc) {
  const Schedule& s = cached_schedule(sc);
  SimConfig config{.seed = sc.seed};
  config.energy = energy_model(sc.energy);
  config.battery_mj = sc.battery_mj;
  util::Xoshiro256 graph_rng(sc.seed ^ 0x9e3779b97f4a7c15ull);
  const net::Graph graph =
      net::random_bounded_degree_graph(sc.n, sc.degree, 2 * sc.n, graph_rng);

  // The per-slot oracle forms no spans, so its call boundaries are moot.
  DutyCycledScheduleMac inner(s, sc.aware);
  ScalarOnlyMac scalar(inner);
  auto oracle_traffic = make_traffic(sc);
  Simulator oracle_sim(graph, scalar, *oracle_traffic, config);

  DutyCycledScheduleMac mac(s, sc.aware);
  auto traffic = make_traffic(sc);
  Simulator sim(graph, mac, *traffic, config);
  const std::uint64_t frame = s.frame_length();
  util::Xoshiro256 split_rng(sc.seed ^ 0x5b17);
  ScenarioKinds kinds;
  std::uint64_t last_start = 0;
  while (sim.now() < sc.slots) {
    std::uint64_t chunk = sc.slots - sim.now();
    if (sc.split == 1) chunk = frame;
    if (sc.split == 2) chunk = 1 + split_rng.below(2 * frame);
    if (sc.split == 3) chunk = 1 + split_rng.below(7);
    chunk = std::min(chunk, sc.slots - sim.now());
    last_start = sim.now();
    const std::uint64_t charged_before = sim.charged_span_stats().charged;
    sim.run(chunk);
    // Observed, a call after the first finds no frame open, so one that
    // starts mid-frame, stays inside that frame and charges a span charged
    // the partial span it covers.
    kinds.partial = kinds.partial ||
                    (sc.observe && last_start % frame != 0 &&
                     (last_start + chunk - 1) / frame == last_start / frame &&
                     sim.charged_span_stats().charged > charged_before);
    if (sc.observe && sim.now() < sc.slots) {
      // Each snapshot audits both simulators after its stats() settled.
      oracle_sim.run(chunk);
      expect_same_outcome(run_split(oracle_sim, 0, 0), run_split(sim, 0, 0));
      if (::testing::Test::HasFailure()) break;
    }
  }
  kinds.settled = sim.charged_span_stats().settled > 0;
  // Unobserved, a final call that starts and ends inside one frame cannot
  // open it (only a span from a frame boundary does), so a frame the end
  // settles was opened by an earlier call and continued across this one.
  const bool inside_one_frame = last_start % frame != 0 && sim.now() % frame != 0 &&
                                last_start / frame == sim.now() / frame;
  oracle_sim.run(sc.slots - oracle_sim.now());
  const RunOutcome oracle = run_split(oracle_sim, 0, 0);
  expect_same_outcome(oracle, run_split(sim, 0, 0));
  kinds.open_across =
      !sc.observe && inside_one_frame && sim.charged_span_stats().settled > 0;
  kinds.deaths = oracle.stats.deaths;
  kinds.skipped = sim.charged_span_stats().skipped > 0;
  return kinds;
}

TEST(ChargedFrames, RandomizedDifferentialAgainstScalarOnlyMac) {
  constexpr std::uint64_t kCases = 1000;
  // Ragged splits (2 and 3) cut frames into partial spans or leave them
  // open; those with deaths exercise the no-death bounds. Runs with bare
  // lookahead traffic skip sender-free slots; unobserved runs carry open
  // frames across calls, observed ones settle them and charge the
  // mid-frame partial spans their next calls start. Both divisions run,
  // over padded base slots and over ones split into k_R ≥ 2 windows, so the
  // frame totals come from walked and from closed-form blocks.
  std::size_t with_deaths = 0, ragged_with_deaths = 0, large = 0;
  std::size_t skipped = 0, open_across = 0, settled = 0, partial = 0;
  std::size_t padded = 0, divided = 0, balanced = 0;
  for (std::uint64_t c = 0; c < kCases; ++c) {
    const Scenario sc = draw_scenario(0xc4a26ed0000ull + c);
    SCOPED_TRACE(sc.describe());
    const core::ConstructBlocks blocks = scenario_blocks(sc);
    padded += blocks.padded ? 1 : 0;
    divided += blocks.max_windows >= 2 ? 1 : 0;
    balanced += sc.division == core::DivisionPolicy::kBalanced ? 1 : 0;
    const ScenarioKinds kinds = expect_scenario_matches(sc);
    const bool deaths = kinds.deaths > 0;
    with_deaths += deaths ? 1 : 0;
    ragged_with_deaths += deaths && sc.split >= 2 ? 1 : 0;
    large += sc.n > util::SlotSet::kDenseUniverse ? 1 : 0;
    skipped += kinds.skipped ? 1 : 0;
    open_across += kinds.open_across ? 1 : 0;
    settled += kinds.settled && sc.observe ? 1 : 0;
    partial += kinds.partial ? 1 : 0;
    if (::testing::Test::HasFailure()) break;  // one reproducible seed is enough
  }
  EXPECT_GT(with_deaths, kCases / 10);
  EXPECT_GT(ragged_with_deaths, kCases / 10);
  EXPECT_GT(large, kCases / kLargeEvery / 2);
  EXPECT_GT(skipped, kCases / 10);
  EXPECT_GT(open_across, kCases / 10);
  EXPECT_GT(settled, kCases / 10);
  EXPECT_GT(partial, kCases / 10);
  EXPECT_GT(padded, kCases / 40);
  EXPECT_GT(divided, kCases / 2);
  EXPECT_GT(balanced, kCases / 4);
}

}  // namespace
}  // namespace ttdc::sim
