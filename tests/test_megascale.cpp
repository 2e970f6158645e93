// The megascale pipeline (DESIGN.md §13): golden SimStats equality between
// each MAC's batched slot sets and the same MAC behind ScalarOnlyMac, at
// sizes on both sides of util::SlotSet::kDenseUniverse (dense sets up to
// 256 nodes, sets that follow their population above). Covers all five
// in-tree MACs, faults armed and disarmed — plus the DomainGrid invariants
// the grid-accelerated unit-disk builder leans on and the O(batch) traffic
// source the megascale bench drives.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <memory>
#include <set>
#include <vector>

#include "combinatorics/constructions.hpp"
#include "combinatorics/params.hpp"
#include "core/builders.hpp"
#include "core/construct.hpp"
#include "net/domain_grid.hpp"
#include "net/topology.hpp"
#include "sim/fault.hpp"
#include "sim/mac.hpp"
#include "sim/simulator.hpp"
#include "support/scalar_only_mac.hpp"
#include "support/stats_equal.hpp"
#include "util/slot_set.hpp"

namespace ttdc::sim {
namespace {

constexpr std::size_t kMaxDegree = 6;
constexpr std::uint64_t kSlots = 1200;

struct TestWorld {
  net::Graph graph;
  core::Schedule schedule;
};

double radius_for(std::size_t n) {
  // ~10 expected nodes per disk before the degree cap prunes: connected
  // enough to route, sparse enough that collisions stay interesting.
  return std::min(0.4, std::sqrt(10.0 / static_cast<double>(n)));
}

TestWorld make_world(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  net::Positions pos = net::random_positions(n, rng);
  net::Graph graph = net::unit_disk_graph(pos, radius_for(n), kMaxDegree);
  core::Schedule schedule = core::construct_duty_cycled(
      core::non_sleeping_from_family(comb::build_plan(comb::best_plan(n, kMaxDegree), n)),
      kMaxDegree, 4, std::max<std::size_t>(4, n / 3));
  return {std::move(graph), std::move(schedule)};
}

FaultPlan make_fault_plan(std::size_t n, std::uint64_t seed) {
  FaultPlanConfig fc;
  fc.horizon_slots = kSlots;
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

SimStats run_world(const TestWorld& world, MacKind kind, const FaultPlan* plan,
                   bool scalar_only) {
  const std::size_t n = world.graph.num_nodes();
  auto mac = make_mac(kind, world);
  ScalarOnlyMac scalar(*mac);
  ConvergecastTraffic traffic(n, /*sink=*/0, 0.01);
  SimConfig cfg;
  cfg.seed = 0xCAFE + n;
  cfg.packet_error_rate = 0.01;
  cfg.fault_plan = plan;
  Simulator sim(world.graph, scalar_only ? static_cast<MacProtocol&>(scalar) : *mac, traffic,
                cfg);
  sim.run(kSlots);
  return sim.stats();  // stats() finalizes the derived sleep counters
}

// The headline golden gate: batched vs ScalarOnlyMac, all five MACs, faults
// armed and disarmed, at n = 50 and 256 (dense sets) and 257 and 800 (sets
// that follow their population).
TEST(MegascaleGolden, AllMacsMatchScalarOnlyOnBothSidesOfDenseUniverse) {
  constexpr std::size_t kEdge = util::SlotSet::kDenseUniverse;
  for (const std::size_t n : {std::size_t{50}, kEdge, kEdge + 1, std::size_t{800}}) {
    const TestWorld world = make_world(n, 0xBEEF + n);
    const FaultPlan plan = make_fault_plan(n, 0x5AFE + n);
    for (const MacKind kind :
         {MacKind::kDutyCycled, MacKind::kAloha, MacKind::kUncoordinated,
          MacKind::kCommonActive, MacKind::kColoringTdma}) {
      for (const FaultPlan* p : {static_cast<const FaultPlan*>(nullptr), &plan}) {
        const SimStats scalar = run_world(world, kind, p, /*scalar_only=*/true);
        const SimStats batched = run_world(world, kind, p, /*scalar_only=*/false);
        ASSERT_NO_FATAL_FAILURE(expect_identical_stats(scalar, batched))
            << "n=" << n << " mac=" << mac_name(kind)
            << " faults=" << (p != nullptr);
      }
    }
  }
}

// ------------------------------------------------------------- domain grid

TEST(DomainGrid, UnitDiskEdgesStayInsideThreeByThreeNeighborhood) {
  for (const std::size_t n : {std::size_t{100}, std::size_t{1000}}) {
    util::Xoshiro256 rng(n);
    const net::Positions pos = net::random_positions(n, rng);
    const double radius = radius_for(n);
    const net::DomainGrid grid(pos, radius);
    EXPECT_GE(grid.cell_size(), radius);  // the invariant's geometric root
    const net::Graph g = net::unit_disk_graph(pos, radius, kMaxDegree, grid);
    EXPECT_TRUE(grid.audit_edges(g));
  }
}

TEST(DomainGrid, DegenerateRadiusStaysBounded) {
  util::Xoshiro256 rng(7);
  const net::Positions pos = net::random_positions(64, rng);
  const net::DomainGrid tiny(pos, 1e-12);
  // Occupancy-capped: never more cells per axis than ~2*sqrt(n)+1.
  EXPECT_LE(tiny.cells_per_axis(), 17u);
  const net::DomainGrid huge(pos, 5.0);
  EXPECT_EQ(huge.cells_per_axis(), 1u);
  EXPECT_EQ(huge.cell_members(0).size(), 64u);
}

TEST(DomainGrid, IncrementalMovesMatchFreshBucketing) {
  const std::size_t n = 300;
  const double radius = radius_for(n);
  net::MobilityModel mobility(n, radius, kMaxDegree, /*speed=*/0.02, /*seed=*/11);
  for (int epoch = 0; epoch < 12; ++epoch) {
    const net::Graph g = mobility.step();
    // The incrementally maintained grid buckets every node exactly where a
    // from-scratch grid over the current positions would.
    const net::DomainGrid fresh(mobility.positions(), radius);
    ASSERT_EQ(mobility.grid().cells_per_axis(), fresh.cells_per_axis());
    for (std::size_t v = 0; v < n; ++v) {
      ASSERT_EQ(mobility.grid().cell_of(v), fresh.cell_of(v))
          << "epoch " << epoch << " node " << v;
    }
    // And the graph built through it equals a fresh build (the sorted
    // candidate order makes the builder bucket-order independent).
    const net::Graph rebuilt =
        net::unit_disk_graph(mobility.positions(), radius, kMaxDegree, fresh);
    EXPECT_TRUE(g.same_adjacency(rebuilt)) << "epoch " << epoch;
    EXPECT_TRUE(mobility.grid().audit_edges(g)) << "epoch " << epoch;
  }
}

// ---------------------------------------------------------- batch traffic

TEST(BatchArrivalTraffic, EmitsExactlyBatchPacketsToSinkEachSlot) {
  const std::size_t n = 50, sink = 7, batch = 4;
  BatchArrivalTraffic traffic(n, sink, batch);
  util::Xoshiro256 rng(3);
  std::set<std::size_t> origins;
  for (std::uint64_t slot = 0; slot < 200; ++slot) {
    std::size_t emitted = 0;
    traffic.generate(slot, rng, [&](std::size_t origin, std::size_t dst) {
      EXPECT_EQ(dst, sink);
      EXPECT_NE(origin, sink);
      EXPECT_LT(origin, n);
      origins.insert(origin);
      ++emitted;
    });
    EXPECT_EQ(emitted, batch);
  }
  // Uniform origins: over 800 draws from 49 candidates, near-all appear.
  EXPECT_GT(origins.size(), 40u);
}

}  // namespace
}  // namespace ttdc::sim
