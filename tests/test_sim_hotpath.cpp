// The word-parallel simulator hot path (DESIGN.md §8): golden equivalence
// between every MAC protocol's batched slot sets and the same MAC driven
// node-at-a-time through ScalarOnlyMac, the batched MAC slot-set contract,
// the lazy routing cache, the ring-buffer packet queue, and the
// zero-allocation steady-state invariant of Simulator::step() with dense
// and with population-following slot sets (verified with a global
// operator-new counting hook).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "combinatorics/constructions.hpp"
#include "combinatorics/params.hpp"
#include "core/builders.hpp"
#include "core/construct.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "sim/mac.hpp"
#include "sim/simulator.hpp"
#include "support/opaque_traffic.hpp"
#include "support/scalar_only_mac.hpp"
#include "support/stats_equal.hpp"
#include "util/slot_set.hpp"

// ---------------------------------------------------------------------------
// Allocation-counting hook: replaces the global operator new for this test
// binary. The zero-allocation test snapshots the counter around sim.run();
// everything else is unaffected (the counter is a relaxed atomic increment).
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

// GCC pairs call sites of the replacement operator new with the free() in
// the replacement operator delete and flags a mismatch; both sides go
// through malloc/free, so the pairing is exactly right.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
// ---------------------------------------------------------------------------

namespace ttdc::sim {
namespace {

using core::DynamicBitset;
using core::Schedule;

constexpr std::size_t kN = 36;
constexpr std::size_t kD = 4;
constexpr std::uint64_t kSlots = 10000;

net::Graph test_graph(std::uint64_t seed = 21, std::size_t n = kN) {
  util::Xoshiro256 rng(seed);
  return net::random_bounded_degree_graph(n, kD, 2 * n, rng);
}

Schedule duty_schedule(std::size_t n = kN, std::size_t alpha_r = kN / 3) {
  return core::construct_duty_cycled(
      core::non_sleeping_from_family(comb::build_plan(comb::best_plan(n, kD), n)), kD, 4,
      alpha_r);
}

/// Runs the same (graph, MAC factory, traffic factory, config) with the MAC
/// wrapped in ScalarOnlyMac and bare, and asserts identical SimStats.
/// Returns the batched run's stats for scenario-specific assertions.
template <typename MacFactory, typename TrafficFactory>
SimStats expect_pipelines_equivalent(MacFactory make_mac, TrafficFactory make_traffic,
                                     const SimConfig& config) {
  auto mac_s = make_mac();
  ScalarOnlyMac scalar_mac(*mac_s);
  auto traffic_s = make_traffic();
  Simulator scalar(test_graph(), scalar_mac, *traffic_s, config);
  scalar.run(kSlots);

  auto mac_b = make_mac();
  auto traffic_b = make_traffic();
  Simulator batched(test_graph(), *mac_b, *traffic_b, config);
  batched.run(kSlots);

  expect_identical_stats(scalar.stats(), batched.stats());
  return batched.stats();
}

auto bernoulli_factory(double rate) {
  return [rate] { return std::make_unique<BernoulliTraffic>(kN, rate); };
}

TEST(HotPathGolden, DutyCycledScheduleMac) {
  const Schedule s = duty_schedule();
  expect_pipelines_equivalent([&] { return std::make_unique<DutyCycledScheduleMac>(s); },
                              bernoulli_factory(0.01), {.seed = 101});
}

TEST(HotPathGolden, DutyCycledScheduleMacNaiveSenders) {
  const Schedule s = duty_schedule();
  expect_pipelines_equivalent(
      [&] { return std::make_unique<DutyCycledScheduleMac>(s, false); },
      bernoulli_factory(0.01), {.seed = 102});
}

TEST(HotPathGolden, SlottedAlohaMac) {
  expect_pipelines_equivalent([] { return std::make_unique<SlottedAlohaMac>(kN, 0.08); },
                              bernoulli_factory(0.02), {.seed = 103});
}

TEST(HotPathGolden, UncoordinatedSleepMac) {
  expect_pipelines_equivalent(
      [] { return std::make_unique<UncoordinatedSleepMac>(kN, 0.3, 0.5); },
      bernoulli_factory(0.02), {.seed = 104});
}

TEST(HotPathGolden, CommonActivePeriodMac) {
  expect_pipelines_equivalent(
      [] { return std::make_unique<CommonActivePeriodMac>(kN, 10, 3, 0.2); },
      bernoulli_factory(0.02), {.seed = 105});
}

TEST(HotPathGolden, ColoringTdmaMac) {
  expect_pipelines_equivalent([] { return std::make_unique<ColoringTdmaMac>(test_graph()); },
                              bernoulli_factory(0.02), {.seed = 106});
}

TEST(HotPathGolden, LossyChannelDrawsIdenticalRngStream) {
  const Schedule s = duty_schedule();
  expect_pipelines_equivalent(
      [&] { return std::make_unique<DutyCycledScheduleMac>(s); }, bernoulli_factory(0.02),
      {.seed = 107, .packet_error_rate = 0.1, .sync_miss_rate = 0.05});
}

TEST(HotPathGolden, BatteryDeathsAndWakeAccounting) {
  const Schedule s = duty_schedule();
  SimConfig config{.seed = 108};
  config.battery_mj = 40.0;  // dies after ~60 listen slots: plenty of deaths
  expect_pipelines_equivalent([&] { return std::make_unique<DutyCycledScheduleMac>(s); },
                              bernoulli_factory(0.02), config);

  SimConfig uconfig{.seed = 109};
  uconfig.battery_mj = 25.0;
  expect_pipelines_equivalent(
      [] { return std::make_unique<UncoordinatedSleepMac>(kN, 0.4, 0.5); },
      bernoulli_factory(0.02), uconfig);

  // Sleeping dearer than being awake: every awake surcharge over sleep is
  // negative, so awake credits RISE and the min-credit bound goes stale-low
  // (it still bounds every live credit, just not tightly). The settle pass
  // must then recompute it without ever missing or inventing a death.
  SimConfig iconfig{.seed = 111};
  iconfig.energy.sleep_mw = 70.0;
  iconfig.battery_mj = 80.0;  // ~115 sleep slots; awake slots stretch that
  const SimStats inverted = expect_pipelines_equivalent(
      [&] { return std::make_unique<DutyCycledScheduleMac>(s); }, bernoulli_factory(0.02),
      iconfig);
  EXPECT_GT(inverted.deaths, 0u);
  EXPECT_GT(inverted.transmissions, 0u);
}

TEST(HotPathGolden, TopologyChurnKeepsPathsAligned) {
  const Schedule s = duty_schedule();
  auto run = [&](bool scalar_only) {
    DutyCycledScheduleMac mac(s);
    ScalarOnlyMac scalar_mac(mac);
    BernoulliTraffic traffic(kN, 0.01);
    Simulator sim(test_graph(1), scalar_only ? static_cast<MacProtocol&>(scalar_mac) : mac,
                  traffic, {.seed = 110});
    util::Xoshiro256 topo_rng(77);
    for (int epoch = 0; epoch < 4; ++epoch) {
      sim.run(1500);
      sim.set_graph(net::random_bounded_degree_graph(kN, kD, 2 * kN, topo_rng));
    }
    sim.run(1500);
    return sim.stats();
  };
  const SimStats a = run(true);
  const SimStats b = run(false);
  expect_identical_stats(a, b);
}

// ------------------------------------------------------- slot-set contract

/// Checks fill_slot_sets() against the scalar interface for whatever slots
/// the MAC is currently in: receivers must mirror can_receive, and the
/// batched transmit rule must mirror wants_transmit for every (v, target).
void expect_slot_sets_match(MacProtocol& mac, std::size_t n, std::uint64_t slots) {
  util::Xoshiro256 rng(5);
  util::SlotSet receivers(n), transmitters(n);
  for (std::uint64_t slot = 0; slot < slots; ++slot) {
    mac.begin_slot(slot, rng);
    const bool batched = mac.fill_slot_sets(receivers, transmitters);
    ASSERT_TRUE(batched);
    const bool gates = mac.sender_gates_on_receiver();
    for (std::size_t v = 0; v < n; ++v) {
      EXPECT_EQ(receivers.test(v), mac.can_receive(v)) << "slot " << slot << " v " << v;
      for (std::size_t target = 0; target < n; ++target) {
        if (target == v) continue;
        const bool batched_tx =
            transmitters.test(v) && (!gates || receivers.test(target));
        EXPECT_EQ(batched_tx, mac.wants_transmit(v, target))
            << "slot " << slot << " v " << v << " target " << target;
      }
      // The sleep contract: not transmitting-eligible, not receiving =>
      // the scalar pipeline would have put the node to sleep.
      if (!receivers.test(v) && !transmitters.test(v)) {
        EXPECT_EQ(mac.idle_state(v), RadioState::kSleep);
      }
    }
  }
}

TEST(MacSlotSets, AllInTreeMacsMatchScalarInterface) {
  const Schedule s = duty_schedule();
  DutyCycledScheduleMac aware(s), naive(s, false);
  expect_slot_sets_match(aware, kN, 2 * s.frame_length());
  expect_slot_sets_match(naive, kN, 2 * s.frame_length());
  SlottedAlohaMac aloha(kN, 0.3);
  expect_slot_sets_match(aloha, kN, 50);
  UncoordinatedSleepMac unco(kN, 0.4, 0.5);
  expect_slot_sets_match(unco, kN, 50);
  CommonActivePeriodMac smac(kN, 8, 3, 0.4);
  expect_slot_sets_match(smac, kN, 24);
  ColoringTdmaMac tdma(test_graph());
  expect_slot_sets_match(tdma, kN, 40);
}

TEST(MacSlotSets, DefaultFallbackFillsReceiversAndReportsScalar) {
  // A minimal out-of-tree MAC using only the scalar interface.
  class EvenListenerMac final : public MacProtocol {
   public:
    void begin_slot(std::uint64_t, util::Xoshiro256&) override {}
    bool can_receive(std::size_t v) const override { return v % 2 == 0; }
    bool wants_transmit(std::size_t v, std::size_t) const override { return v % 2 == 1; }
    RadioState idle_state(std::size_t) const override { return RadioState::kSleep; }
  };
  EvenListenerMac mac;
  util::SlotSet receivers(6), transmitters(6);
  EXPECT_FALSE(mac.fill_slot_sets(receivers, transmitters));
  for (std::size_t v = 0; v < 6; ++v) EXPECT_EQ(receivers.test(v), v % 2 == 0);

  // And the simulator still drives it correctly through its per-node
  // fallback: odd nodes transmit to even neighbors, even nodes listen every
  // slot, and the derived sleep counts close each node's slot budget.
  BernoulliTraffic traffic(6, 0.2);
  Simulator sim(net::path_graph(6), mac, traffic, {.seed = 42});
  sim.run(2000);
  const SimStats& stats = sim.stats();
  EXPECT_GT(stats.delivered, 0u);
  constexpr auto kTx = static_cast<std::size_t>(RadioState::kTransmit);
  constexpr auto kListen = static_cast<std::size_t>(RadioState::kListen);
  constexpr auto kSleep = static_cast<std::size_t>(RadioState::kSleep);
  for (std::size_t v = 0; v < 6; ++v) {
    const auto& s = stats.state_slots[v];
    EXPECT_EQ(s[0] + s[1] + s[2] + s[3], 2000u) << "node " << v;
    if (v % 2 == 0) {
      EXPECT_EQ(s[kListen], 2000u) << "node " << v;
    } else {
      EXPECT_GT(s[kTx], 0u) << "node " << v;
      EXPECT_EQ(s[kTx] + s[kSleep], 2000u) << "node " << v;
    }
  }
}

// ------------------------------------------------------------ routing cache

TEST(RoutingCache, ColumnsBuildLazilyAndInvalidateOnSetGraph) {
  net::Graph path = net::path_graph(5);
  net::RoutingTable table(path);
  EXPECT_EQ(table.cached_destinations(), 0u);
  EXPECT_EQ(table.next_hop(0, 4), 1u);
  EXPECT_EQ(table.cached_destinations(), 1u);  // only dst=4 materialized
  EXPECT_EQ(table.next_hop(3, 4), 4u);
  EXPECT_EQ(table.cached_destinations(), 1u);  // cache hit, no new column
  EXPECT_EQ(table.next_hop(4, 4), 4u);
  EXPECT_EQ(table.next_hop(4, 0), 3u);
  EXPECT_EQ(table.cached_destinations(), 2u);

  // Add a chord 0-4: the shortest path changes only after invalidation.
  net::Graph chord = net::path_graph(5);
  chord.add_edge(0, 4);
  table.set_graph(chord);
  EXPECT_EQ(table.cached_destinations(), 0u);
  EXPECT_EQ(table.next_hop(0, 4), 4u);

  // Unreachable destinations keep reporting SIZE_MAX.
  net::Graph split(4);
  split.add_edge(0, 1);
  split.add_edge(2, 3);
  net::RoutingTable t2(split);
  EXPECT_EQ(t2.next_hop(0, 3), static_cast<std::size_t>(-1));
  EXPECT_EQ(t2.next_hop(2, 3), 3u);
}

// --------------------------------------------------------- ring PacketQueue

TEST(PacketQueueRing, WrapsAroundWithoutLosingFifoOrder) {
  PacketQueue q(3);
  auto pkt = [](std::uint64_t id) {
    Packet p;
    p.id = id;
    return p;
  };
  EXPECT_TRUE(q.push(pkt(1)));
  EXPECT_TRUE(q.push(pkt(2)));
  EXPECT_TRUE(q.push(pkt(3)));
  EXPECT_FALSE(q.push(pkt(4)));  // full: dropped
  EXPECT_EQ(q.front().id, 1u);
  q.pop();
  EXPECT_TRUE(q.push(pkt(5)));  // head has wrapped past the buffer start
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.front().id, 2u);
  q.pop();
  EXPECT_EQ(q.front().id, 3u);
  q.pop();
  EXPECT_EQ(q.front().id, 5u);
  q.pop();
  EXPECT_TRUE(q.empty());
}

// ------------------------------------------------------- zero allocations

TEST(HotPathAllocations, BatchedStepIsAllocationFreeInSteadyState) {
  // Dense sets at n = 36. At n = 300 the sets follow their population,
  // and αR = 12 keeps R[i] and the listener sets sparse, so the sparse
  // merges run every slot and must reuse their own capacity (a union that
  // swapped buffers with the merge scratch allocates here). Each runs under
  // a convergecast and under SaturatedFlows, whose drain notifications
  // and pending-set walk must not allocate either, and under a sparse
  // lookahead convergecast, bare, so its charged spans skip their
  // sender-free slots, and behind OpaqueTraffic, so they step them. The
  // measured windows are cut into ragged run() calls of 1, 7, L-1 and L+3
  // slots: frames left open across calls, their continuations, partial
  // spans and whole frames. Each window runs unobserved, with stats() once
  // per cycle (settling a frame some calls continued) and with stats()
  // after every call, after a warm-up that observes nothing: the
  // simulator's sets are sized to their bounds at construction and its
  // span scratch at the first partial span or settle, so no window depends
  // on which populations the warm-up happened to reach.
  enum class Load { kConvergecast, kSaturated, kSparseLookahead, kSparseOpaque };
  enum class Observe { kNever, kPerCycle, kEvery };
  for (const auto& [n, alpha_r] : {std::pair<std::size_t, std::size_t>{kN, kN / 3}, {300, 12}}) {
    for (const Load load : {Load::kConvergecast, Load::kSaturated, Load::kSparseLookahead,
                            Load::kSparseOpaque}) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " aR=" << alpha_r
                                        << " load=" << static_cast<int>(load));
      const Schedule s = duty_schedule(n, alpha_r);
      DutyCycledScheduleMac mac(s);
      const net::Graph graph = test_graph(21, n);
      const Simulator* probe = nullptr;
      std::unique_ptr<TrafficSource> traffic;
      SimConfig config{.seed = 200};
      if (load == Load::kSaturated) {
        // One flow per node to its first neighbour: a routing column per
        // destination, all built by the first slot's pushes.
        std::vector<std::pair<std::size_t, std::size_t>> flows;
        for (std::size_t v = 0; v < n; ++v) {
          const std::vector<std::size_t> neighbors = graph.neighbor_list(v);
          if (!neighbors.empty()) flows.emplace_back(v, neighbors.front());
        }
        traffic = std::make_unique<SaturatedFlows>(
            std::move(flows), [&probe](std::size_t v) { return probe->queue_size(v); });
      } else if (load == Load::kConvergecast) {
        traffic = std::make_unique<ConvergecastTraffic>(n, 0, 0.02);  // one routing column
      } else {
        // One arrival per 40 slots on average.
        const double rate = 1.0 / (40.0 * static_cast<double>(n - 1));
        traffic = std::make_unique<LookaheadConvergecastTraffic>(n, 0, rate, 201);
        if (load == Load::kSparseOpaque) {
          traffic = std::make_unique<OpaqueTraffic>(std::move(traffic));
        }
      }
      const bool skips = load == Load::kSparseLookahead;
      Simulator sim(graph, mac, *traffic, config);
      probe = &sim;
      const std::uint64_t frame = s.frame_length();
      const std::uint64_t chunks[] = {1, 7, frame - 1, frame + 3};
      const auto run_ragged = [&](std::uint64_t slots, Observe observe) {
        const std::uint64_t end = sim.now() + slots;
        for (std::size_t k = 0; sim.now() < end; ++k) {
          sim.run(std::min(chunks[k % 4], end - sim.now()));
          if (observe == Observe::kEvery || (observe == Observe::kPerCycle && k % 4 == 2)) {
            (void)sim.stats();
          }
        }
      };
      // Steady state: routing columns built, queues saturated.
      sim.run(3000);
      run_ragged(2 * frame + 11, Observe::kNever);
      for (const Observe observe : {Observe::kNever, Observe::kPerCycle, Observe::kEvery}) {
        SCOPED_TRACE(::testing::Message() << "observe=" << static_cast<int>(observe));
        // The window starts 100 slots before a frame boundary, so even
        // n = 300's frame of ~17k slots opens one inside it.
        sim.run(frame - (sim.now() + 100) % frame);
        // Latency samples are the one unbounded buffer; pre-size it for the
        // measured window (the paper's experiments do the same via
        // reserve()). A delivery needs a transmitter, so n per slot bounds
        // the window's.
        sim.reserve_latency(sim.stats().latency.count() + 2000 * n);
        const SimStats stats_before = sim.stats();
        const ChargedSpanStats spans_before = sim.charged_span_stats();
        const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
        run_ragged(2000, observe);
        const std::uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
        const ChargedSpanStats spans = sim.charged_span_stats();  // before stats() settles
        EXPECT_EQ(after - before, 0u) << "Simulator::step() allocated on the hot path";
        // The window did real work, including phase-2 resolution.
        EXPECT_GT(sim.stats().delivered, stats_before.delivered);
        EXPECT_GT(sim.stats().transmissions, stats_before.transmissions);
        EXPECT_EQ(spans.settled > spans_before.settled, observe != Observe::kNever);
        EXPECT_EQ(spans.skipped > spans_before.skipped, skips);
      }
    }
  }
}

// Control for the test above: a zero count only means something if the
// hook sees allocations at all, both from a new-expression here and from
// code compiled into the ttdc libraries.
void* volatile g_escape = nullptr;  // keeps the allocation observable

TEST(HotPathAllocations, CountingHookObservesAllocations) {
  std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  auto* words = new std::uint64_t[16];
  g_escape = words;
  EXPECT_GT(g_alloc_count.load(std::memory_order_relaxed), before);
  delete[] words;

  before = g_alloc_count.load(std::memory_order_relaxed);
  util::SlotSet set(4096);
  set.set_all();  // first dense use allocates the word storage
  EXPECT_GT(g_alloc_count.load(std::memory_order_relaxed), before);
  EXPECT_EQ(set.count(), 4096u);
}

// The simulator's working sets rely on this: once reserve_bounds() has
// run, no operation on a set allocates, whatever populations it reaches;
// the same operations on a set that has not been reserved do.
TEST(HotPathAllocations, ReservedSlotSetNeverAllocates) {
  constexpr std::size_t kUniverse = 4096;
  const std::size_t most = util::SlotSet::promote_threshold(kUniverse);
  // Two disjoint sparse sets at the promote threshold: their union is the
  // longest id list a sparse set builds before it promotes.
  util::SlotSet evens(kUniverse);
  util::SlotSet odds(kUniverse);
  for (std::size_t k = 0; k < most; ++k) {
    evens.set(2 * k);
    odds.set(2 * k + 1);
  }
  ASSERT_FALSE(evens.is_dense());
  ASSERT_FALSE(odds.is_dense());
  for (const bool reserved : {false, true}) {
    SCOPED_TRACE(reserved ? "reserved" : "not reserved");
    util::SlotSet set(kUniverse);
    if (reserved) set.reserve_bounds();
    const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
    set.copy_from(evens);
    set |= odds;  // a sparse union of 2 * most ids, then dense
    EXPECT_TRUE(set.is_dense());
    set.reset_all();
    // Descending, so every member but the first is inserted at the front
    // of the id list; the last one promotes.
    for (std::size_t k = 0; k <= most; ++k) set.set(kUniverse - 1 - k);
    EXPECT_TRUE(set.is_dense());
    for (std::size_t k = 0; k <= most; ++k) set.reset(kUniverse - 1 - k);
    EXPECT_FALSE(set.is_dense());
    set.flip_all();
    set.subtract(odds);
    set &= evens;
    const std::uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
    EXPECT_TRUE(set == evens);
    if (reserved) {
      EXPECT_EQ(after - before, 0u);
    } else {
      EXPECT_GT(after - before, 0u);
    }
  }
}

}  // namespace
}  // namespace ttdc::sim
