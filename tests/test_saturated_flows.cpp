// SaturatedFlows' pending set (DESIGN.md §8, "Adding a traffic source"):
// the source probes only the flows whose origin may have run dry, and must
// emit exactly what probing every flow every slot emits. A seeded randomized
// differential holds it to tests/support/every_flow_scan.hpp over graphs,
// flows, queue capacities, batteries, fault plans, MACs and run() splits,
// comparing SimStats and the created-packet stream; a lookahead source
// checks that TrafficSource::on_queue_drained reaches the traffic source
// across the slots a charged span skips.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "combinatorics/constructions.hpp"
#include "combinatorics/params.hpp"
#include "core/builders.hpp"
#include "core/construct.hpp"
#include "net/topology.hpp"
#include "obs/flight_recorder.hpp"
#include "sim/fault.hpp"
#include "sim/mac.hpp"
#include "sim/simulator.hpp"
#include "support/every_flow_scan.hpp"
#include "support/opaque_traffic.hpp"
#include "support/scalar_only_mac.hpp"
#include "support/stats_equal.hpp"
#include "util/slot_set.hpp"

namespace ttdc::sim {
namespace {

using core::Schedule;
using Flows = std::vector<std::pair<std::size_t, std::size_t>>;

/// The probe SaturatedFlows' contract asks for: the origin's queue length
/// in the simulator driving the source (bound once it exists).
SaturatedFlows::BacklogFn queue_probe(const Simulator*& sim) {
  return [&sim](std::size_t v) { return sim->queue_size(v); };
}

TEST(SaturatedFlows, RejectedEmissionStaysPendingUntilTheOriginRecovers) {
  // Node 0 is down for slots [0, 50): every emission is rejected, so the
  // flow must stay pending and emit in slot 50, as a scan would.
  const Schedule s = core::non_sleeping_from_family(comb::tdma_family(3));
  std::vector<FaultEvent> events;
  events.push_back({.slot = 0, .node = 0, .magnitude_mj = 0.0,
                    .kind = FaultEvent::Kind::kCrash});
  events.push_back({.slot = 50, .node = 0, .magnitude_mj = 0.0,
                    .kind = FaultEvent::Kind::kRecover});
  const FaultPlan plan(events, 3);
  DutyCycledScheduleMac mac(s);
  const Simulator* probe = nullptr;
  SaturatedFlows traffic({{0, 1}}, queue_probe(probe));
  Simulator sim(net::path_graph(3), mac, traffic, {.seed = 3, .fault_plan = &plan});
  probe = &sim;
  sim.run(50);
  EXPECT_EQ(sim.stats().generated, 0u);
  sim.run(1);
  EXPECT_EQ(sim.stats().generated, 1u);
  EXPECT_EQ(sim.queue_size(0), 1u);
}

TEST(SaturatedFlows, SharedSourceTopsUpOnceInFlowOrder) {
  // Three flows from node 1: only the first in flow order finds the queue
  // empty, and every delivery refills it for that flow's destination.
  const Schedule s = core::non_sleeping_from_family(comb::tdma_family(3));
  DutyCycledScheduleMac mac(s);
  const Simulator* probe = nullptr;
  SaturatedFlows traffic({{1, 2}, {1, 0}, {1, 2}}, queue_probe(probe));
  obs::FlightRecorder recorder(4096);
  SimConfig config{.seed = 5};
  config.recorder = &recorder;
  Simulator sim(net::path_graph(3), mac, traffic, config);
  probe = &sim;
  sim.run(30);
  EXPECT_EQ(sim.stats().generated, 11u);  // slot 0, then one per delivery
  for (const obs::FlightEvent& e : recorder.events()) {
    if (e.kind == obs::FlightEvent::Kind::kCreated) {
      EXPECT_EQ(e.peer, 2u);
    }
  }
}

// ---------------------------------------------------------------------------
// Seeded randomized differential against EveryFlowScan.

constexpr std::uint64_t kLargeEvery = 8;  // share of networks above 256 nodes

struct Scenario {
  std::uint64_t seed = 0;
  std::size_t n = 0, degree = 0;
  int graph = 0;  // 0 bounded-degree, 1 unit-disk, 2 path, 3 disconnected union
  int mac = 0;    // 0 duty-cycled schedule, 1 the same behind ScalarOnlyMac, 2 ALOHA
  bool duty_cycled = false;  // the schedule sleeps (Construct), else non-sleeping
  std::size_t queue_capacity = 64;
  bool drop_unroutable = true;
  double battery_mj = 0.0;
  bool faults = false;
  std::uint64_t slots = 0;

  [[nodiscard]] std::string describe() const {
    std::ostringstream os;
    os << "seed=" << seed << " n=" << n << " D=" << degree << " graph=" << graph
       << " mac=" << mac << " duty_cycled=" << duty_cycled << " cap=" << queue_capacity
       << " drop_unroutable=" << drop_unroutable << " battery_mj=" << battery_mj
       << " faults=" << faults << " slots=" << slots;
    return os.str();
  }
};

const Schedule& cached_schedule(std::size_t n, std::size_t d, bool duty_cycled) {
  static std::map<std::tuple<std::size_t, std::size_t, bool>, std::unique_ptr<Schedule>> cache;
  auto& slot = cache[{n, d, duty_cycled}];
  if (slot == nullptr) {
    Schedule base = n <= d + 1 ? core::non_sleeping_from_family(comb::tdma_family(n))
                               : core::non_sleeping_from_family(
                                     comb::build_plan(comb::best_plan(n, d), n));
    if (duty_cycled) {
      // αT = 2, αR = n/3: the paper's recipe, at a frame short enough for
      // a few frames per scenario.
      base = core::construct_duty_cycled(base, d, 2, std::max<std::size_t>(1, n / 3));
    }
    slot = std::make_unique<Schedule>(std::move(base));
  }
  return *slot;
}

Scenario draw_scenario(std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  const auto pick = [&](std::uint64_t lo, std::uint64_t hi) {  // inclusive
    return static_cast<std::size_t>(lo + rng.below(hi - lo + 1));
  };
  Scenario sc;
  sc.seed = seed;
  sc.n = rng.below(kLargeEvery) == 0 ? pick(util::SlotSet::kDenseUniverse + 1, 300)
                                     : pick(2, 60);
  sc.degree = std::min<std::size_t>(pick(1, 4), sc.n - 1);
  sc.graph = static_cast<int>(rng.below(4));
  if (sc.n < 4 && sc.graph == 3) sc.graph = 2;
  sc.mac = static_cast<int>(rng.below(3));
  sc.duty_cycled = sc.n >= 6 && sc.n <= 40 && sc.degree >= 2 && rng.bernoulli(0.5);
  const std::size_t capacities[] = {1, 2, 64};
  sc.queue_capacity = capacities[rng.below(3)];
  sc.drop_unroutable = rng.bernoulli(0.5);
  sc.faults = rng.bernoulli(0.3);
  const std::uint64_t frame = cached_schedule(sc.n, sc.degree, sc.duty_cycled).frame_length();
  const std::uint64_t budget = sc.n > util::SlotSet::kDenseUniverse ? 400 : 900;
  sc.slots = std::min<std::uint64_t>(budget, 3 * frame) + rng.below(std::min(frame, budget));
  if (rng.bernoulli(0.4)) {
    // Around what a listener spends over the run: busy nodes die, some
    // sleepers do not.
    const double listen = EnergyModel{}.energy_mj(RadioState::kListen, 1);
    const double fraction = 0.2 + rng.uniform01();
    sc.battery_mj = std::round(fraction * listen * static_cast<double>(sc.slots) * 1e3) / 1e3;
  }
  return sc;
}

net::Graph make_graph(const Scenario& sc, util::Xoshiro256& rng) {
  const std::size_t n = sc.n;
  switch (sc.graph) {
    case 0:
      return net::random_bounded_degree_graph(n, sc.degree, n * sc.degree / 2 + 1, rng);
    case 1: {
      const net::Positions pos = net::random_positions(n, rng);
      return net::unit_disk_graph(pos, std::sqrt(4.0 / static_cast<double>(n)), sc.degree);
    }
    case 2:
      return net::path_graph(n);
    default: {
      // Two random components, no edge between them.
      const std::size_t left = n / 2;
      const net::Graph a = net::random_bounded_degree_graph(left, sc.degree, left, rng);
      const net::Graph b = net::random_bounded_degree_graph(n - left, sc.degree, n - left, rng);
      net::Graph g(n);
      for (const auto& [u, v] : a.edges()) g.add_edge(u, v);
      for (const auto& [u, v] : b.edges()) g.add_edge(left + u, left + v);
      return g;
    }
  }
}

/// Sources from a pool of about half the nodes, so several flows share a
/// source; destinations a neighbour or any other node (multi-hop, or
/// unreachable across components), so forwarded packets refill sources.
Flows make_flows(const Scenario& sc, const net::Graph& graph, util::Xoshiro256& rng) {
  const std::size_t pool = std::max<std::size_t>(1, sc.n / 2);
  const std::size_t count = 1 + static_cast<std::size_t>(rng.below(2 * sc.n));
  Flows flows;
  for (std::size_t i = 0; i < count; ++i) {
    const auto src = static_cast<std::size_t>(rng.below(pool)) * (sc.n / pool);
    const std::vector<std::size_t> neighbors = graph.neighbor_list(src);
    std::size_t dst = 0;
    if (!neighbors.empty() && rng.bernoulli(0.5)) {
      dst = neighbors[rng.below(neighbors.size())];
    } else {
      dst = static_cast<std::size_t>(rng.below(sc.n - 1));
      if (dst >= src) ++dst;
    }
    flows.emplace_back(src, dst);
  }
  return flows;
}

std::unique_ptr<FaultPlan> make_fault_plan(const Scenario& sc) {
  if (!sc.faults) return nullptr;
  FaultPlanConfig fc;
  fc.horizon_slots = sc.slots;
  fc.crash_rate = 0.004;
  fc.mean_downtime_slots = 30.0;
  fc.num_jammers = std::min<std::size_t>(2, sc.n / 4);
  fc.jam_duty = 0.1;
  fc.jam_burst_slots = 20;
  return std::make_unique<FaultPlan>(fc, sc.n, sc.seed ^ 0xfa17);
}

/// (slot, origin, destination, id) of every created packet.
using Created = std::tuple<std::uint64_t, std::uint32_t, std::uint32_t, std::uint64_t>;

struct Run {
  SimStats stats;
  std::vector<Created> created;
};

/// Runs the scenario with `make_source(probe)` as traffic, in run() calls
/// of lengths drawn from `split_seed` (200 slots each when 0), draining the
/// recorder after each.
template <typename MakeSource>
Run run_scenario(const Scenario& sc, const net::Graph& graph, const FaultPlan* plan,
                 MakeSource make_source, std::uint64_t split_seed) {
  const Schedule& s = cached_schedule(sc.n, sc.degree, sc.duty_cycled);
  DutyCycledScheduleMac duty(s);
  ScalarOnlyMac scalar(duty);
  SlottedAlohaMac aloha(sc.n, 0.3);
  MacProtocol* mac = sc.mac == 0 ? static_cast<MacProtocol*>(&duty)
                     : sc.mac == 1 ? static_cast<MacProtocol*>(&scalar)
                                   : static_cast<MacProtocol*>(&aloha);
  obs::FlightRecorder recorder(1 << 16);
  SimConfig config{.seed = sc.seed, .queue_capacity = sc.queue_capacity,
                   .drop_unroutable = sc.drop_unroutable};
  config.recorder = &recorder;
  config.battery_mj = sc.battery_mj;
  config.fault_plan = plan;
  const Simulator* probe = nullptr;
  auto traffic = make_source(probe);
  Simulator sim(graph, *mac, *traffic, config);
  probe = &sim;
  Run out;
  util::Xoshiro256 split_rng(split_seed);
  while (sim.now() < sc.slots) {
    const std::uint64_t left = sc.slots - sim.now();
    // Whole frames, a few slots, or a ragged length: charged frames, cut
    // frames and the per-slot path all meet the pending set.
    const std::uint64_t lengths[] = {s.frame_length(), 1 + split_rng.below(7),
                                     1 + split_rng.below(200)};
    sim.run(split_seed == 0 ? std::min<std::uint64_t>(left, 200)
                            : std::min(left, lengths[split_rng.below(3)]));
    EXPECT_FALSE(recorder.wrapped()) << "recorder ring too small for the chunk";
    for (const obs::FlightEvent& e : recorder.events()) {
      if (e.kind == obs::FlightEvent::Kind::kCreated) {
        out.created.emplace_back(e.slot, e.node, e.peer, e.packet_id);
      }
    }
    recorder.clear();
  }
  sim.audit_invariants();
  out.stats = sim.stats();
  return out;
}

struct Coverage {
  bool large = false, deaths = false, crashes = false, refilled = false;
};

Coverage expect_scenario_matches(const Scenario& sc) {
  util::Xoshiro256 rng(sc.seed ^ 0x5a7u);
  const net::Graph graph = make_graph(sc, rng);
  const Flows flows = make_flows(sc, graph, rng);
  const std::unique_ptr<FaultPlan> plan = make_fault_plan(sc);
  const Run oracle = run_scenario(
      sc, graph, plan.get(),
      [&](const Simulator*& probe) {
        return std::make_unique<EveryFlowScan>(flows, queue_probe(probe));
      },
      0);
  const Run pending = run_scenario(
      sc, graph, plan.get(),
      [&](const Simulator*& probe) {
        return std::make_unique<SaturatedFlows>(flows, queue_probe(probe));
      },
      sc.seed ^ 0x5b17);
  expect_identical_stats(oracle.stats, pending.stats);
  EXPECT_EQ(oracle.created, pending.created);
  Coverage c;
  c.large = sc.n > util::SlotSet::kDenseUniverse;
  c.deaths = oracle.stats.deaths > 0;
  c.crashes = oracle.stats.fault_crashes > 0;
  // A packet forwarded into a flow's source: hops happened on a multi-hop
  // route while sources were saturated.
  c.refilled = oracle.stats.hop_successes > oracle.stats.delivered;
  return c;
}

TEST(SaturatedFlows, RandomizedDifferentialAgainstEveryFlowScan) {
  constexpr std::uint64_t kCases = 600;
  std::size_t large = 0, deaths = 0, crashes = 0, refilled = 0;
  for (std::uint64_t c = 0; c < kCases; ++c) {
    const Scenario sc = draw_scenario(0x5a7f10ull * 1000 + c);
    SCOPED_TRACE(sc.describe());
    const Coverage cov = expect_scenario_matches(sc);
    large += cov.large ? 1 : 0;
    deaths += cov.deaths ? 1 : 0;
    crashes += cov.crashes ? 1 : 0;
    refilled += cov.refilled ? 1 : 0;
    if (::testing::Test::HasFailure()) break;  // one reproducible seed is enough
  }
  EXPECT_GT(large, kCases / kLargeEvery / 2);
  EXPECT_GT(deaths, kCases / 20);
  EXPECT_GT(crashes, kCases / 20);
  EXPECT_GT(refilled, kCases / 4);
}

// ---------------------------------------------------------------------------
// The drain notification across skipped slots.

/// One packet origin -> destination every `every` slots from slot `first`,
/// as a slot-addressable stream. At every generate() it checks that each
/// queue it last saw holding packets and now finds empty was reported
/// drained in between, and that every report comes from the slot it last
/// generated for: a skipped slot drains no queue.
class PeriodicDrainWatcher final : public TrafficSource {
 public:
  PeriodicDrainWatcher(std::size_t n, std::size_t origin, std::size_t destination,
                       std::uint64_t first, std::uint64_t every, const Simulator*& sim)
      : origin_(origin), destination_(destination), next_(first), every_(every), sim_(sim),
        held_(n, false) {}

  void generate(std::uint64_t slot, util::Xoshiro256&, const EmitFn& emit) override {
    for (std::size_t v = 0; v < held_.size(); ++v) {
      if (held_[v] && sim_->queue_size(v) == 0) {
        ADD_FAILURE() << "node " << v << "'s queue emptied unreported before slot " << slot;
      }
    }
    while (next_ == slot) {
      emit(origin_, destination_);
      next_ += every_;
    }
    for (std::size_t v = 0; v < held_.size(); ++v) held_[v] = sim_->queue_size(v) > 0;
    last_generated_ = slot;
  }
  [[nodiscard]] bool supports_lookahead() const override { return true; }
  [[nodiscard]] std::uint64_t next_emission(std::uint64_t) const override { return next_; }
  void on_queue_drained(std::size_t node) override {
    EXPECT_EQ(sim_->queue_size(node), 0u) << "node " << node << " reported while backlogged";
    EXPECT_EQ(sim_->now(), last_generated_) << "node " << node << " reported outside a step";
    held_[node] = false;
    ++drains;
  }

  std::uint64_t drains = 0;

 private:
  std::size_t origin_, destination_;
  std::uint64_t next_, every_;
  const Simulator*& sim_;
  std::vector<bool> held_;
  std::uint64_t last_generated_ = TrafficSource::kNoEmission;
};

TEST(DrainNotification, ReachesTheSourceThroughReplay) {
  // TDMA on a 4-path: node i transmits in slot i of every frame. A packet
  // 0 -> 3 arrives in slot 1 of every third frame and crosses the path in
  // slots 0-2 of the next one, emptying nodes 0, 1 and 2's queues in turn.
  // Bare, the source lets the simulator skip every slot in which no
  // backlogged node transmits, so generate() sees only the stepped slots;
  // behind OpaqueTraffic every slot is stepped. Both runs report every
  // emptying, from the slot that emptied it, and match.
  const Schedule s = core::non_sleeping_from_family(comb::tdma_family(4));
  const std::uint64_t frame = s.frame_length();
  ASSERT_EQ(frame, 4u);
  SimStats reference;
  for (const bool opaque : {true, false}) {
    SCOPED_TRACE(::testing::Message() << "opaque=" << opaque);
    DutyCycledScheduleMac mac(s);
    const Simulator* probe = nullptr;
    PeriodicDrainWatcher traffic(4, 0, 3, 1, 3 * frame, probe);
    OpaqueTraffic wrapped(traffic);
    Simulator sim(net::path_graph(4), mac,
                  opaque ? static_cast<TrafficSource&>(wrapped) : traffic, {.seed = 11});
    probe = &sim;
    sim.run(300 * frame);
    EXPECT_EQ(sim.stats().delivered, 100u);
    EXPECT_EQ(traffic.drains, 3u * 100u);
    if (opaque) {
      EXPECT_EQ(sim.charged_span_stats().skipped, 0u);
      reference = sim.stats();
    } else {
      // Four stepped slots per packet: its arrival and its three hops.
      EXPECT_EQ(sim.charged_span_stats().skipped, 300 * frame - 4u * 100u);
      expect_identical_stats(reference, sim.stats());
    }
  }
}

}  // namespace
}  // namespace ttdc::sim
