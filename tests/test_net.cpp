// Graphs and topology generators.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <numeric>
#include <vector>

#include "net/graph.hpp"
#include "net/topology.hpp"
#include "support/reference_unit_disk.hpp"

namespace ttdc::net {
namespace {

TEST(Graph, EdgeBasics) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 1);  // idempotent
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_EQ(g.max_degree(), 2u);
  EXPECT_EQ(g.neighbor_list(1), (std::vector<std::size_t>{0, 2}));
}

TEST(Graph, EdgesListsEachOnce) {
  Graph g(4);
  g.add_edge(2, 0);
  g.add_edge(3, 1);
  const auto e = g.edges();
  ASSERT_EQ(e.size(), 2u);
  EXPECT_EQ(e[0], (std::pair<std::size_t, std::size_t>{0, 2}));
  EXPECT_EQ(e[1], (std::pair<std::size_t, std::size_t>{1, 3}));
}

TEST(Graph, ConnectivityAndBfs) {
  Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  EXPECT_FALSE(g.is_connected());
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  EXPECT_TRUE(g.is_connected());
  const auto dist = g.bfs_distances(0);
  EXPECT_EQ(dist[4], 4u);
  const auto parents = g.bfs_parents(4);
  EXPECT_EQ(parents[0], 1u);
  EXPECT_EQ(parents[4], 4u);
}

TEST(Topology, DeterministicShapes) {
  EXPECT_EQ(path_graph(5).num_edges(), 4u);
  EXPECT_EQ(ring_graph(5).num_edges(), 5u);
  EXPECT_EQ(ring_graph(5).max_degree(), 2u);
  EXPECT_EQ(star_graph(6).max_degree(), 5u);
  EXPECT_EQ(grid_graph(3, 4).num_edges(), 3u * 3 + 2u * 4);  // 17
  EXPECT_TRUE(grid_graph(3, 4).is_connected());
  EXPECT_EQ(mary_tree(7, 2).num_edges(), 6u);
  EXPECT_TRUE(mary_tree(13, 3).is_connected());
}

TEST(Topology, WorstCaseStarShape) {
  const Graph g = worst_case_star(4);
  EXPECT_EQ(g.num_nodes(), 5u);
  EXPECT_EQ(g.degree(0), 4u);
  for (std::size_t leaf = 1; leaf <= 4; ++leaf) EXPECT_EQ(g.degree(leaf), 1u);
}

TEST(Topology, RandomBoundedDegreeRespectsCap) {
  util::Xoshiro256 rng(10);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 10 + static_cast<std::size_t>(rng.below(40));
    const std::size_t d = 2 + static_cast<std::size_t>(rng.below(5));
    const Graph g = random_bounded_degree_graph(n, d, n * 2, rng);
    EXPECT_LE(g.max_degree(), d);
    EXPECT_EQ(g.num_nodes(), n);
  }
}

TEST(Topology, UnitDiskRespectsRadiusAndCap) {
  util::Xoshiro256 rng(12);
  const Positions pos = random_positions(60, rng);
  const double radius = 0.25;
  const std::size_t cap = 4;
  const Graph g = unit_disk_graph(pos, radius, cap);
  EXPECT_LE(g.max_degree(), cap);
  for (const auto& [a, b] : g.edges()) {
    const double dx = pos.x[a] - pos.x[b];
    const double dy = pos.y[a] - pos.y[b];
    EXPECT_LE(dx * dx + dy * dy, radius * radius + 1e-12);
  }
}

// The bucketed candidate order against one comparison sort: same adjacency
// over seeds, sizes and degree caps, at a radius that gives about ten
// candidates per node, so the cap binds.
TEST(Topology, UnitDiskMatchesComparisonSortOracle) {
  for (const std::size_t n : {0, 1, 2, 10, 100, 400, 1000, 5000}) {
    const std::size_t seeds = n <= 400 ? 10 : n <= 1000 ? 3 : 1;
    const double radius = n < 10 ? 0.5 : std::sqrt(10.0 / (3.14159 * static_cast<double>(n)));
    for (const std::size_t cap : {1, 3, 6, 8}) {
      for (std::size_t seed = 0; seed < seeds; ++seed) {
        SCOPED_TRACE(::testing::Message() << "n=" << n << " D=" << cap << " seed=" << seed);
        util::Xoshiro256 rng(1000 * n + seed);
        const Positions pos = random_positions(n, rng);
        const Graph g = unit_disk_graph(pos, radius, cap);
        EXPECT_TRUE(g.same_adjacency(reference_unit_disk_graph(pos, radius, cap)));
        EXPECT_LE(g.max_degree(), cap);
      }
    }
  }
}

/// Points on the lattice {0, 1/8, ..., 1}², every coordinate exact in
/// binary, so lattice neighbours sit at exactly 1/8 (and diagonal ones at
/// exactly the same √2/8), with indices shuffled so that cell order and
/// index order disagree.
Positions shuffled_lattice(util::Xoshiro256& rng) {
  std::vector<std::size_t> order(81);
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[static_cast<std::size_t>(rng.below(i))]);
  }
  Positions pos;
  pos.x.resize(order.size());
  pos.y.resize(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    pos.x[order[i]] = static_cast<double>(i % 9) / 8.0;
    pos.y[order[i]] = static_cast<double>(i / 9) / 8.0;
  }
  return pos;
}

TEST(Topology, UnitDiskMatchesOracleOnTiesAndDegenerateRadii) {
  const auto expect_same = [](const Positions& pos, double radius, std::size_t cap) {
    const Graph g = unit_disk_graph(pos, radius, cap);
    const Graph ref = reference_unit_disk_graph(pos, radius, cap);
    EXPECT_TRUE(g.same_adjacency(ref)) << "radius=" << radius << " D=" << cap;
    return g;
  };
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    util::Xoshiro256 rng(seed);
    // Coincident points: ties at distance 0, across and within locations.
    Positions stacked;
    const std::size_t sites = 1 + static_cast<std::size_t>(rng.below(6));
    const Positions site = random_positions(sites, rng);
    for (std::size_t i = 0; i < 60; ++i) {
      const auto s = static_cast<std::size_t>(rng.below(sites));
      stacked.x.push_back(site.x[s]);
      stacked.y.push_back(site.y[s]);
    }
    for (const std::size_t cap : {1, 3, 8}) {
      expect_same(stacked, 0.3, cap);
      // Radius 0, or so small that buckets/radius overflows: only
      // coincident points are within range, all in one bucket.
      expect_same(stacked, 0.0, cap);
      expect_same(stacked, 1e-300, cap);
    }
    // Pairs at exactly the radius, with ties across cells.
    const Positions lattice = shuffled_lattice(rng);
    for (const std::size_t cap : {1, 2, 3}) {
      const Graph g = expect_same(lattice, 1.0 / 8.0, cap);
      expect_same(lattice, std::sqrt(2.0) / 8.0, cap);
      if (cap == 3) {
        EXPECT_GT(g.num_edges(), 0u);
      }
    }
    // Radius at and beyond the unit square's diagonal: every pair is a
    // candidate.
    const Positions spread = random_positions(100, rng);
    for (const double radius : {std::sqrt(2.0), 1.5, 1e300}) {
      for (const std::size_t cap : {1, 3, 8}) expect_same(spread, radius, cap);
    }
  }
  // Radius 0 with everything at one point: a complete graph under the cap.
  Positions one;
  one.x.assign(12, 0.5);
  one.y.assign(12, 0.5);
  EXPECT_EQ(unit_disk_graph(one, 0.0, 11).num_edges(), 66u);
}

TEST(Topology, MobilityKeepsNodesInUnitSquareAndCapHolds) {
  MobilityModel model(30, 0.3, 3, 0.05, 99);
  for (int epoch = 0; epoch < 25; ++epoch) {
    const Graph g = model.step();
    EXPECT_LE(g.max_degree(), 3u);
    for (std::size_t i = 0; i < 30; ++i) {
      EXPECT_GE(model.positions().x[i], 0.0);
      EXPECT_LE(model.positions().x[i], 1.0);
      EXPECT_GE(model.positions().y[i], 0.0);
      EXPECT_LE(model.positions().y[i], 1.0);
    }
  }
}

TEST(Topology, MobilityActuallyChangesTopology) {
  MobilityModel model(25, 0.3, 4, 0.08, 7);
  const Graph first = model.step();
  bool changed = false;
  for (int epoch = 0; epoch < 10 && !changed; ++epoch) {
    const Graph g = model.step();
    if (g.edges() != first.edges()) changed = true;
  }
  EXPECT_TRUE(changed);
}

}  // namespace
}  // namespace ttdc::net
